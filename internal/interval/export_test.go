package interval

// IsPoint reports whether the interval is degenerate ([v, v]).
func (a Interval) IsPoint() bool {
	return a.Lo == a.Hi
}

// Contains reports whether v lies inside the interval.
func (a Interval) Contains(v float64) bool { return a.Lo <= v && v <= a.Hi }

// Width returns Hi − Lo (+Inf for unbounded intervals).
func (a Interval) Width() float64 { return a.Hi - a.Lo }
