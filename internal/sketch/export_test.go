package sketch

// F2 returns the sketch's second-moment estimate: the mean over rows of the
// per-row sum of squared counters.
func (a *AMS) F2() float64 {
	var total float64
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			v := a.data[r*a.Cols+c]
			total += v * v
		}
	}
	return total / float64(a.Rows)
}
