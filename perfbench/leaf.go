package main

import (
	"time"

	"privreg/internal/constraint"
	"privreg/internal/core"
	"privreg/internal/dp"
	"privreg/internal/erm"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/sketch"
	"privreg/internal/tree"
	"privreg/internal/vec"
)

// leafTimes are the leaf-kernel spans of one op.
type leafTimes struct {
	treeAdd, treeSum, apply, opt, lift, ermAdd, ermSolve time.Duration
	solved                                               bool // a boundary solve ran
}

func (l leafTimes) total() time.Duration {
	return l.treeAdd + l.treeSum + l.apply + l.opt + l.lift + l.ermAdd + l.ermSolve
}

// leaves replays an op's kernel calls at the workload's shapes on instances
// of the benchmark's own, so each kernel gets a span of its own (the
// estimators do not expose theirs).
type leaves interface {
	observe(s int, xs, ys []float64) leafTimes
	estimate(s int) leafTimes // a cold read
}

// newLeaves builds the replicas; seed gives each stream's estimator seed.
func newLeaves(w *workload, horizon int, seed func(s int) int64) (leaves, error) {
	if w.mechanism == "generic-erm" {
		return newERMLeaves(w, horizon)
	}
	return newRegLeaves(w, horizon, seed)
}

// regLeaves mirrors the private-gradient mechanisms. Gradient (Mechanism 1)
// folds x·y and x xᵀ into two tree mechanisms and solves with noisy PGD over
// C. Projected (Mechanism 2) first applies the JL sketch, runs the same
// stages in the m-dimensional image over the ball ΦC is relaxed to, and
// lifts the solution back into C.
//
// The stages run on real core instances seeded like the stream's estimator,
// so they repeat its computation bit for bit: per stream, a
// core.GradientRegression over C (Mechanism 1 itself) or over the image ball
// absorbs the points, and for Mechanism 2 a core.ProjectedRegression supplies
// the projector, m and γ. release checks the replay against the server's
// estimate. Only AddTo runs inside a core estimator with no span of its own,
// so it is timed on trees of the benchmark's own, built at the estimator's
// shapes.
type regLeaves struct {
	d, m    int
	c       constraint.Set
	proj    []sketch.Transform // nil for Mechanism 1
	stage   []*core.GradientRegression
	xy, xxt []*tree.Tree
	px      []float64
	pxy, f  []float64
	pts     []loss.Point
}

func newRegLeaves(w *workload, horizon int, seed func(s int) int64) (*regLeaves, error) {
	d := w.dim
	l := &regLeaves{d: d, m: d, c: constraint.NewL2Ball(d, 1)}
	set := l.c
	half := benchPrivacy.Halve()
	for s := 0; s < w.streams; s++ {
		src := randx.NewSource(seed(s))
		if w.mechanism == "projected" {
			r, err := core.NewProjectedRegression(constraint.NewL2Ball(d, 1), l.c, benchPrivacy, horizon, randx.NewSource(seed(s)), core.ProjectedOptions{})
			if err != nil {
				return nil, err
			}
			l.m = r.ProjectionDim()
			set = constraint.NewL2Ball(l.m, (1+r.Gamma())*l.c.Diameter())
			l.proj = append(l.proj, r.Projector())
			// The projector takes the first draw; the stage's trees then
			// draw the same keys as the estimator's.
			src.DeriveKey()
		}
		g, err := core.NewGradientRegression(set, benchPrivacy, horizon, src, core.RegressionOptions{})
		if err != nil {
			return nil, err
		}
		tsrc := randx.NewSource(int64(s) + 1)
		xy, err := tree.New(tree.Config{Dim: l.m, MaxLen: horizon, Sensitivity: 2, Privacy: half}, tsrc.Split())
		if err != nil {
			return nil, err
		}
		xxt, err := tree.New(tree.Config{Dim: l.m * l.m, MaxLen: horizon, Sensitivity: 2, Privacy: half}, tsrc.Split())
		if err != nil {
			return nil, err
		}
		l.stage = append(l.stage, g)
		l.xy, l.xxt = append(l.xy, xy), append(l.xxt, xxt)
	}
	l.px = make([]float64, w.batch*l.m)
	l.pxy = make([]float64, w.batch*l.m)
	l.f = make([]float64, w.batch*l.m*l.m)
	l.pts = make([]loss.Point, w.batch)
	return l, nil
}

func (l *regLeaves) observe(s int, xs, ys []float64) leafTimes {
	var lt leafTimes
	d, m, rows := l.d, l.m, len(ys)
	px := xs
	if l.proj != nil {
		start := time.Now()
		for r := 0; r < rows; r++ {
			l.proj[s].ScaledApplyTo(l.px[r*m:(r+1)*m], xs[r*d:(r+1)*d])
		}
		lt.apply = time.Since(start)
		px = l.px
	}
	for r := 0; r < rows; r++ {
		x := px[r*m : (r+1)*m]
		f := l.f[r*m*m : (r+1)*m*m]
		for i, xi := range x {
			l.pxy[r*m+i] = ys[r] * xi
			for j, xj := range x {
				f[i*m+j] = xi * xj
			}
		}
		l.pts[r] = loss.Point{X: vec.Vector(x), Y: ys[r]}
	}
	start := time.Now()
	for r := 0; r < rows; r++ {
		_ = l.xy[s].AddTo(nil, l.pxy[r*m:(r+1)*m])
		_ = l.xxt[s].AddTo(nil, l.f[r*m*m:(r+1)*m*m])
	}
	lt.treeAdd = time.Since(start)
	_ = l.stage[s].ObserveBatch(l.pts[:rows])
	return lt
}

// estimate times a cold read. The tree sums are the stage's Gradient; the
// solve is the rest of its Estimate: step-size selection and noisy PGD.
func (l *regLeaves) estimate(s int) leafTimes {
	var lt leafTimes
	g := l.stage[s]
	start := time.Now()
	_ = g.Gradient()
	lt.treeSum = time.Since(start)
	start = time.Now()
	theta, err := g.Estimate()
	lt.opt = time.Since(start) - lt.treeSum
	if err == nil && l.proj != nil {
		start = time.Now()
		_, _ = l.proj[s].Lift(l.c, theta, sketch.LiftOptions{})
		lt.lift = time.Since(start)
	}
	return lt
}

// release is stream s's estimate as the replay computes it; it must equal
// the estimator's, or the spans time a computation the mechanism no longer
// runs.
func (l *regLeaves) release(s int) ([]float64, error) {
	theta, err := l.stage[s].Estimate()
	if err != nil || l.proj == nil {
		return theta, err
	}
	if theta, err = l.proj[s].Lift(l.c, theta, sketch.LiftOptions{}); err != nil {
		return nil, err
	}
	return l.c.Project(theta), nil
}

// ermLeaves mirrors generic-erm on the squared loss: an O(d²) sufficient-
// statistics fold per point, and a private batch solve on the first read
// after each τ boundary.
type ermLeaves struct {
	d       int
	stats   []*erm.QuadraticStats
	t, inv  []int
	tau     int
	perCall dp.Params
	solver  *erm.Solver
}

// newGenericERM builds generic-erm as the server's spec does: squared loss
// over the unit ball.
func newGenericERM(w *workload, horizon int) (*core.GenericERM, error) {
	return core.NewGenericERM(loss.Squared{}, constraint.NewL2Ball(w.dim, 1), benchPrivacy, horizon, randx.NewSource(1), core.GenericOptions{})
}

// solvePeriod is the number of points per solve period of the workload's
// mechanism at this horizon: τ for generic-erm, 1 for the regression
// mechanisms, which solve on the first read after any new point.
func solvePeriod(w *workload, horizon int) (int, error) {
	if w.mechanism != "generic-erm" {
		return 1, nil
	}
	g, err := newGenericERM(w, horizon)
	if err != nil {
		return 0, err
	}
	return g.Tau(), nil
}

func newERMLeaves(w *workload, horizon int) (*ermLeaves, error) {
	g, err := newGenericERM(w, horizon)
	if err != nil {
		return nil, err
	}
	l := &ermLeaves{d: w.dim, t: make([]int, w.streams), inv: make([]int, w.streams),
		tau: g.Tau(), perCall: g.PerCallPrivacy(), solver: erm.NewSolver(constraint.NewL2Ball(w.dim, 1))}
	for s := 0; s < w.streams; s++ {
		l.stats = append(l.stats, erm.NewQuadraticStats(w.dim))
	}
	return l, nil
}

func (l *ermLeaves) observe(s int, xs, ys []float64) leafTimes {
	start := time.Now()
	for r, y := range ys {
		l.stats[s].Add(vec.Vector(xs[r*l.d:(r+1)*l.d]), y)
	}
	l.t[s] += len(ys)
	return leafTimes{ermAdd: time.Since(start)}
}

func (l *ermLeaves) estimate(s int) leafTimes {
	inv := l.t[s] / l.tau
	if inv <= l.inv[s] {
		return leafTimes{}
	}
	l.inv[s] = inv
	start := time.Now()
	_, _ = l.solver.SolveStats(loss.Squared{}, l.stats[s], l.perCall, int64(s), uint64(inv), erm.PrivateBatchOptions{})
	return leafTimes{ermSolve: time.Since(start), solved: true}
}
