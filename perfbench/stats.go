package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is sorted in place). It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockStats are the sufficient statistics of one data batch for the
// squared loss: A = Σ x xᵀ, b = Σ y x, c = Σ y², n rows.
type blockStats struct {
	a    []float64 // d×d row-major
	b    []float64
	c, n float64
}

func statsOf(xs, ys []float64, d int) blockStats {
	st := blockStats{a: make([]float64, d*d), b: make([]float64, d)}
	for r, y := range ys {
		x := xs[r*d : (r+1)*d]
		for i, xi := range x {
			row := st.a[i*d : (i+1)*d]
			for j, xj := range x {
				row[j] += xi * xj
			}
			st.b[i] += y * xi
		}
		st.c += y * y
		st.n++
	}
	return st
}

func (st *blockStats) addScaled(o *blockStats, k float64) {
	for i := range st.a {
		st.a[i] += k * o.a[i]
	}
	for i := range st.b {
		st.b[i] += k * o.b[i]
	}
	st.c += k * o.c
	st.n += k * o.n
}

// risk is the mean squared error of θ on the history the stats summarize.
func (st *blockStats) risk(theta []float64) float64 {
	d := len(theta)
	var q, l float64
	for i := 0; i < d; i++ {
		var row float64
		for j := 0; j < d; j++ {
			row += st.a[i*d+j] * theta[j]
		}
		q += theta[i] * row
		l += st.b[i] * theta[i]
	}
	return (q - 2*l + st.c) / st.n
}

// minRisk is the exact least-squares risk over the L2 ball of the given
// radius: θ(λ) = (A + λI)⁻¹ b, with λ = 0 when that lies in the ball and
// otherwise found by bisection on ‖θ(λ)‖ = radius (the norm falls in λ).
func (st *blockStats) minRisk(radius float64) float64 {
	d := len(st.b)
	solve := func(lambda float64) ([]float64, bool) {
		m := append([]float64(nil), st.a...)
		for i := 0; i < d; i++ {
			m[i*d+i] += lambda
		}
		return cholSolve(m, st.b, d)
	}
	norm := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s)
	}
	if th, ok := solve(0); ok && norm(th) <= radius {
		return st.risk(th)
	}
	lo, hi := 0.0, norm(st.b)/radius
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if th, ok := solve(mid); ok && norm(th) <= radius {
			hi = mid
		} else {
			lo = mid
		}
	}
	th, _ := solve(hi)
	return st.risk(th)
}

// cholSolve solves m x = b for a symmetric positive-definite m (row-major,
// overwritten); ok is false when m is not numerically positive definite.
func cholSolve(m, b []float64, d int) ([]float64, bool) {
	for j := 0; j < d; j++ {
		s := m[j*d+j]
		for k := 0; k < j; k++ {
			s -= m[j*d+k] * m[j*d+k]
		}
		if s <= 0 {
			return nil, false
		}
		m[j*d+j] = math.Sqrt(s)
		for i := j + 1; i < d; i++ {
			s := m[i*d+j]
			for k := 0; k < j; k++ {
				s -= m[i*d+k] * m[j*d+k]
			}
			m[i*d+j] = s / m[j*d+j]
		}
	}
	x := append([]float64(nil), b...)
	for i := 0; i < d; i++ {
		for k := 0; k < i; k++ {
			x[i] -= m[i*d+k] * x[k]
		}
		x[i] /= m[i*d+i]
	}
	for i := d - 1; i >= 0; i-- {
		for k := i + 1; k < d; k++ {
			x[i] -= m[k*d+i] * x[k]
		}
		x[i] /= m[i*d+i]
	}
	return x, true
}

// excessRisk is the median over streams of risk(θ_s) − min risk on stream
// s's whole history.
func excessRisk(w *workload, p *plan, data *payloads, thetas [][]float64) float64 {
	blocks := make([]blockStats, len(data.xs))
	for b := range blocks {
		blocks[b] = statsOf(data.xs[b], data.ys[b], w.dim)
	}
	ex := make([]float64, w.streams)
	for s := range ex {
		hist := blockStats{a: make([]float64, w.dim*w.dim), b: make([]float64, w.dim)}
		for j, k := range p.counts[s] {
			if k > 0 {
				hist.addScaled(&blocks[w.block(s, j)], float64(k))
			}
		}
		ex[s] = hist.risk(thetas[s]) - hist.minRisk(1)
	}
	return median(ex)
}
