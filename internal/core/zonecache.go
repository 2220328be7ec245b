package core

import (
	"math"
	"strconv"
)

// zoneCacheQuantum is the grid pitch (x0, r) is quantized at for
// decomposition-cache keys.
const zoneCacheQuantum = 1e-2

// zoneCache is a machine's small private LRU of ADCD-X decomposition
// artifacts keyed by the quantized (x0, r) of a full sync (Config.ZoneCacheSize
// entries; touched only from fullSync, so it needs no lock). Reusing an entry
// skips the eigenvalue search; the quantization means the cached Lemma-1
// bounds were computed for a reference point up to one quantum away, which
// the protocol tolerates the same way it tolerates the optimizer's local
// optima: the §3.7 sanity check turns any resulting unsound zone into a
// Faulty violation and a fresh full sync. Thresholds, f0 and ∇f0 are never
// cached — BuildZoneXFrom recomputes them exactly for the true x0.
type zoneCache struct {
	cap  int
	keys []string // LRU order: least recently used first
	vals map[string]*XDecomposition
}

func newZoneCache(capacity int) *zoneCache {
	return &zoneCache{cap: capacity, vals: make(map[string]*XDecomposition, capacity)}
}

// maxQuantCell bounds the grid coordinates quantizeKey will render: beyond
// 2⁵³ a float64 no longer represents every integer, so two distinct radii
// (or reference coordinates) could silently round to the same cell — and a
// float-to-int64 conversion past the int64 range is undefined. Values this
// large only arise from pathology (unbounded §3.6 doubling, NaN/Inf inputs);
// the cache is bypassed rather than risking key aliasing.
const maxQuantCell = float64(1 << 53)

// quantizeCell maps one value onto the zoneCacheQuantum grid, reporting
// whether the cell index survives the float→int64 round trip. NaN, ±Inf and
// magnitudes beyond maxQuantCell are unrepresentable: they would alias
// unrelated keys, so the caller must bypass the cache instead.
func quantizeCell(v float64) (int64, bool) {
	g := math.Round(v / zoneCacheQuantum)
	if math.IsNaN(g) || g < -maxQuantCell || g > maxQuantCell {
		return 0, false
	}
	return int64(g), true
}

// quantizeKey renders the grid coordinates of (x0, r) as the cache key,
// prefixed by the eigen-engine backend (an L-BFGS estimate is not a
// certificate, and vice versa). The second return is false when any
// coordinate is too large (or not finite) to quantize soundly; such syncs
// must skip the cache entirely.
func quantizeKey(backend EigBackend, x0 []float64, r float64) (string, bool) {
	b := make([]byte, 0, 16*(len(x0)+1)+8)
	b = strconv.AppendUint(b, uint64(backend), 10)
	b = append(b, '|')
	cell, ok := quantizeCell(r)
	if !ok {
		return "", false
	}
	b = strconv.AppendInt(b, cell, 10)
	for _, v := range x0 {
		b = append(b, ',')
		cell, ok = quantizeCell(v)
		if !ok {
			return "", false
		}
		b = strconv.AppendInt(b, cell, 10)
	}
	return string(b), true
}

// reset drops every cached decomposition and returns how many there were.
// The machine calls it when its neighborhood radius changes (§3.6 doubling
// or an adaptive swap): keys embed the quantized r, so old-radius entries
// can never be looked up again.
func (zc *zoneCache) reset() int {
	n := len(zc.keys)
	zc.keys = nil
	clear(zc.vals)
	return n
}

func (zc *zoneCache) get(key string) (*XDecomposition, bool) {
	dec, ok := zc.vals[key]
	if ok {
		zc.touch(key)
	}
	return dec, ok
}

func (zc *zoneCache) put(key string, dec *XDecomposition) {
	if len(zc.keys) >= zc.cap {
		delete(zc.vals, zc.keys[0])
		zc.keys = zc.keys[1:]
	}
	zc.keys = append(zc.keys, key)
	zc.vals[key] = dec
}

func (zc *zoneCache) touch(key string) {
	for i, k := range zc.keys {
		if k == key {
			copy(zc.keys[i:], zc.keys[i+1:])
			zc.keys[len(zc.keys)-1] = key
			return
		}
	}
}
