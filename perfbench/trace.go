package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"privreg"
	"privreg/internal/randx"
	"privreg/internal/server"
	"privreg/internal/wire"
)

// shadow is the in-process stack the traced pass replays every op on: a
// Pool built from the same server.Spec as the server's (the bit-identity
// reference), one standalone estimator per stream (the Pool's per-stream
// estimators, built the same way), and the leaf-kernel replicas.
type shadow struct {
	mech     string
	opts     []privreg.Option
	seed     int64
	pool     *privreg.Pool
	spillDir string
	ests     []privreg.Estimator
	leaves   leaves
}

// streamSeed is Pool's per-stream seed derivation: FNV-1a of the stream ID
// folded into the template seed through the SplitMix64 finalizer.
func streamSeed(id string, seed int64) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int64(randx.Mix64(h.Sum64()^uint64(seed)) & 0x7fffffffffffffff)
}

func (sh *shadow) newEstimator(s int) (privreg.Estimator, error) {
	opts := append(append([]privreg.Option(nil), sh.opts...), privreg.WithSeed(streamSeed(streamID(s), sh.seed)))
	return privreg.New(sh.mech, opts...)
}

// newShadowPool builds a Pool the way the server does for the same flags.
// Spill-backed workloads get a spill directory of their own, which close
// removes.
func newShadowPool(cfg *config, horizon int) (sh *shadow, err error) {
	w := cfg.w
	spec := server.Spec{Mechanism: w.mechanism, Epsilon: benchPrivacy.Epsilon, Delta: benchPrivacy.Delta,
		Horizon: horizon, Dim: w.dim, Seed: int64(cfg.seed)}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	sh = &shadow{mech: spec.Mechanism, opts: opts, seed: spec.Seed}
	poolOpts := opts
	if w.storeCap > 0 {
		if sh.spillDir, err = os.MkdirTemp(cfg.workDir, "shadow-"); err != nil {
			return nil, err
		}
		poolOpts = append(append([]privreg.Option(nil), opts...), privreg.WithSpillDir(sh.spillDir), privreg.WithStoreCap(w.storeCap))
	}
	if sh.pool, err = privreg.NewPool(spec.Mechanism, poolOpts...); err != nil {
		sh.close()
		return nil, err
	}
	return sh, nil
}

func (sh *shadow) close() {
	if sh.spillDir != "" {
		_ = os.RemoveAll(sh.spillDir)
	}
}

func newShadow(cfg *config, horizon int) (*shadow, error) {
	sh, err := newShadowPool(cfg, horizon)
	if err != nil {
		return nil, err
	}
	w := cfg.w
	for s := 0; s < w.streams; s++ {
		est, err := sh.newEstimator(s)
		if err != nil {
			sh.close()
			return nil, err
		}
		sh.ests = append(sh.ests, est)
	}
	seed := func(s int) int64 { return streamSeed(streamID(s), sh.seed) }
	if sh.leaves, err = newLeaves(w, horizon, seed); err != nil {
		sh.close()
		return nil, err
	}
	return sh, nil
}

// poolAllocs replays the ops on a fresh in-process Pool and counts the heap
// allocations of each ObserveFlat call. The replay does no network I/O, runs
// on one P (no per-P sync.Pool caches to miss across) and collects garbage
// only at fixed op indices, so nothing else allocates inside a counted call.
// Map growth still varies with Go's per-map hash seeds, so the result is the
// median call's count per point, which repeats exactly.
func poolAllocs(cfg *config, horizon int, ops []op, data *payloads) (float64, error) {
	sh, err := newShadowPool(cfg, horizon)
	if err != nil {
		return 0, err
	}
	defer sh.close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms0, ms1 runtime.MemStats
	var perPt []float64
	for i := range ops {
		if i%256 == 0 {
			runtime.GC()
		}
		o := &ops[i]
		id := streamID(int(o.stream))
		if o.kind == opEstimate {
			if _, err := sh.pool.Estimate(id); err != nil {
				return 0, err
			}
			continue
		}
		xs, ys := data.xs[o.block], data.ys[o.block]
		runtime.ReadMemStats(&ms0)
		err := sh.pool.ObserveFlat(id, cfg.w.dim, xs, ys)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return 0, err
		}
		perPt = append(perPt, float64(ms1.Mallocs-ms0.Mallocs)/float64(len(ys)))
	}
	return median(perPt), nil
}

// samples are the traced pass's per-op span differences, by metric.
type samples map[string][]float64

func (sm samples) add(name string, v float64) { sm[name] = append(sm[name], v) }

// runTraced replays the warm-up plus tracedCycles cycles twice, each time on
// a fresh server: first with no tracing, then traced down the stack. The
// traced replay's wall time over the untraced one's is the cost of tracing:
// the in-process layers the traced pass runs next to every request, and the
// timer reads.
func runTraced(cfg *config) (*report, error) {
	w := cfg.w
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	horizon := horizonFor(w, cfg.seed, cfg.seconds)
	tau, err := solvePeriod(w, horizon)
	if err != nil {
		return nil, err
	}
	p := newPlan(w, cfg.seed, w.tracedCycles, tau)
	ops := append(p.warm, p.measured...)
	data := genData(w, cfg.seed)

	// Untraced reference.
	ref := new(tally)
	sess, err := openSession(cfg, horizon, data)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := range ops {
		a, err := sess.conn.do(&ops[i])
		if err != nil || !ref.check(w, &ops[i], a) {
			sess.close()
			return nil, fmt.Errorf("untraced reference replay: op %d: %v %v", i, err, ref.errs)
		}
	}
	refWall := time.Since(t0)
	sess.close()

	allocsPerPt, err := poolAllocs(cfg, horizon, ops, data)
	if err != nil {
		return nil, err
	}
	sh, err := newShadow(cfg, horizon)
	if err != nil {
		return nil, err
	}
	defer sh.close()
	if sess, err = openSession(cfg, horizon, data); err != nil {
		return nil, err
	}
	defer sess.close()
	t := new(tally)
	sm := samples{}
	var (
		faults, evicts              int64
		frameBytes, points, retries int64
		xsBuf                       = make([]float64, w.batch*w.dim)
		ysBuf                       = make([]float64, w.batch)
	)
	t0 = time.Now()
	for i := range ops {
		o := &ops[i]
		s, id := int(o.stream), streamID(int(o.stream))
		t.attempted++
		a, err := sess.conn.do(o)
		if err != nil {
			t.failed++
			t.fail("%v", err)
			continue
		}
		retries += int64(a.retries)
		if !t.check(w, o, a) {
			t.failed++
			continue
		}
		var st0 privreg.PoolStats
		if w.storeCap > 0 {
			st0 = sh.pool.Stats()
		}
		var tPool, tEst time.Duration
		var lt leafTimes
		if o.kind == opObserve {
			xs, ys := data.xs[o.block], data.ys[o.block]
			pts := float64(len(ys))
			points += int64(len(ys))
			if !w.json {
				frame := data.obsFrame[o.block]
				frameBytes += int64(len(frame))
				start := time.Now()
				h, err := wire.ParseObserveHeader(frame[5:len(frame)-4], w.dim)
				if err == nil {
					err = h.DecodeRows(xsBuf, ysBuf)
				}
				sm.add("wire.decode_ns_per_pt", float64(time.Since(start).Nanoseconds())/pts)
				if err != nil {
					return nil, fmt.Errorf("decoding observe frame: %w", err)
				}
			}
			start := time.Now()
			err := sh.pool.ObserveFlat(id, w.dim, xs, ys)
			tPool = time.Since(start)
			if err == nil {
				start = time.Now()
				err = sh.ests[s].(privreg.FlatObserver).ObserveFlat(w.dim, xs, ys)
				tEst = time.Since(start)
			}
			if err != nil {
				return nil, fmt.Errorf("in-process observe %s: %w", id, err)
			}
			lt = sh.leaves.observe(s, xs, ys)
			sm.add("server.observe_self_us", float64((a.dur-tPool).Nanoseconds())/1e3)
			sm.add("pool.observe_ns_per_pt", float64((tPool-tEst).Nanoseconds())/pts)
			sm.add("core.observe_ns_per_pt", float64((tEst-lt.total()).Nanoseconds())/pts)
			sm.add("tree.add_ns_per_pt", float64(lt.treeAdd.Nanoseconds())/pts)
			sm.add("sketch.apply_ns_per_pt", float64(lt.apply.Nanoseconds())/pts)
			sm.add("erm.add_ns_per_pt", float64(lt.ermAdd.Nanoseconds())/pts)
		} else {
			start := time.Now()
			_, err := sh.pool.Estimate(id)
			tPool = time.Since(start)
			if err == nil {
				start = time.Now()
				_, err = sh.ests[s].Estimate()
				tEst = time.Since(start)
			}
			if err != nil {
				return nil, fmt.Errorf("in-process estimate %s: %w", id, err)
			}
			sm.add("server.estimate_self_us", float64((a.dur-tPool).Nanoseconds())/1e3)
			if o.cold {
				lt = sh.leaves.estimate(s)
				sm.add("pool.estimate_cold_us", float64((tPool-tEst).Nanoseconds())/1e3)
				sm.add("core.estimate_cold_us", float64((tEst-lt.total()).Nanoseconds())/1e3)
				sm.add("tree.sum_us", float64(lt.treeSum.Nanoseconds())/1e3)
				sm.add("optimize.solve_ms", float64(lt.opt.Nanoseconds())/1e6)
				sm.add("sketch.lift_ms", float64(lt.lift.Nanoseconds())/1e6)
				if lt.solved {
					sm.add("erm.solve_us", float64(lt.ermSolve.Nanoseconds())/1e3)
				}
			} else {
				sm.add("pool.estimate_cached_ns", float64((tPool - tEst).Nanoseconds()))
			}
		}
		if w.storeCap > 0 {
			st1 := sh.pool.Stats()
			faults += st1.FaultIns - st0.FaultIns
			evicts += st1.Evictions - st0.Evictions
			if st1.FaultIns > st0.FaultIns {
				sm.add("store.fault_in_us", float64((tPool-tEst).Nanoseconds())/1e3)
			}
		}
	}
	traceWall := time.Since(t0)

	// Shadow verification: the server, the Pool and the standalone
	// estimators must release bit-identical estimates for every stream.
	thetas, err := finalEstimates(w, sess.conn, p, t)
	if err != nil {
		return nil, err
	}
	for s := 0; s < w.streams && len(t.errs) == 0; s++ {
		fromPool, err := sh.pool.Estimate(streamID(s))
		if err != nil {
			return nil, err
		}
		fromEst, err := sh.ests[s].Estimate()
		if err != nil {
			return nil, err
		}
		if !identical(thetas[s], fromPool) || !identical(fromPool, fromEst) {
			t.fail("%s: server, shadow Pool and standalone estimator disagree", streamID(s))
		}
		if rl, ok := sh.leaves.(*regLeaves); ok {
			replayed, err := rl.release(s)
			if err != nil {
				return nil, err
			}
			if !identical(replayed, fromEst) {
				return nil, fmt.Errorf("%s: the leaf replay's estimate differs from the estimator's; leaf.go no longer follows the mechanism", streamID(s))
			}
		}
	}
	for s := 0; s < w.streams; s++ {
		start := time.Now()
		blob, err := sh.ests[s].MarshalBinary()
		sm.add("core.marshal_us", float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return nil, err
		}
		sm.add("core.state_bytes", float64(len(blob)))
		fresh, err := sh.newEstimator(s)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		err = fresh.UnmarshalBinary(blob)
		sm.add("core.unmarshal_us", float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return nil, err
		}
	}
	segBytes := 0.0
	if sh.spillDir != "" {
		if _, err := sh.pool.Flush(); err != nil {
			return nil, err
		}
		segBytes = segmentBytes(sh.spillDir)
	}
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: wrong:", e)
	}

	nOps := float64(len(ops))
	perPt := func(n int64) float64 {
		if points == 0 {
			return 0
		}
		return float64(n) / float64(points)
	}
	overhead := 100 * (traceWall.Seconds()/refWall.Seconds() - 1)
	verdict := "bit-identical"
	if len(t.errs) > 0 {
		verdict = "NOT verified"
	}
	fmt.Printf("%s traced: %d ops, %d points; server vs shadow on %d streams: %s\n", w.name, len(ops), points, w.streams, verdict)
	m := map[string]metric{
		"server.retries_per_op":   {float64(retries) / nOps, "count"},
		"wire.frame_bytes_per_pt": {perPt(frameBytes), "bytes"},
		"pool.allocs_per_pt":      {allocsPerPt, "count"},
		"store.fault_ins_per_op":  {float64(faults) / nOps, "count"},
		"store.evictions_per_op":  {float64(evicts) / nOps, "count"},
		"store.segment_bytes":     {segBytes, "bytes"},
		"trace.overhead_pct":      {overhead, "%"},
	}
	units := map[string]string{
		"server.observe_self_us": "us", "server.estimate_self_us": "us",
		"wire.decode_ns_per_pt": "ns", "pool.observe_ns_per_pt": "ns",
		"pool.estimate_cold_us": "us", "pool.estimate_cached_ns": "ns",
		"store.fault_in_us": "us", "core.observe_ns_per_pt": "ns",
		"core.estimate_cold_us": "us", "core.state_bytes": "bytes",
		"core.marshal_us": "us", "core.unmarshal_us": "us",
		"tree.add_ns_per_pt": "ns", "tree.sum_us": "us",
		"erm.add_ns_per_pt": "ns", "erm.solve_us": "us",
		"optimize.solve_ms": "ms", "sketch.lift_ms": "ms",
		"sketch.apply_ns_per_pt": "ns",
	}
	for name, unit := range units {
		m[name] = metric{median(sm[name]), unit}
	}
	return &report{Correct: len(t.errs) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func identical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
