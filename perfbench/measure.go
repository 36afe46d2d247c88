package main

import (
	"fmt"
	"os"
	"time"
)

// tally collects a phase's samples and verdicts. Each latency sample keeps
// the index of the probe window it fell in.
type tally struct {
	ackMs, coldMs, cachedUs    []float64
	ackWin, coldWin, cachedWin []int
	attempted, failed          int
	retries                    int
	points                     int64
	errs                       []string // first few wrong answers or failures

	// probe, when set, runs every probeEvery ops, between requests; the ops
	// after one run form a window. server, when set, is read for its CPU
	// time at every window edge.
	probe    *speedProbe
	server   *serverProc
	wins     []window
	open     bool
	winStart time.Time
	winCPU   float64
}

// window is the stretch of ops after one run of the speed probe: their wall
// time, probe left out, and the server's CPU time over it.
type window struct {
	wall time.Duration
	cpu  float64
}

const probeEvery = 128

// edge closes the open window, if any, and with more set runs the probe and
// opens the next window.
func (t *tally) edge(more bool) error {
	now := time.Now()
	var cpu float64
	if t.server != nil {
		var err error
		if cpu, err = t.server.cpuSeconds(); err != nil {
			return err
		}
	}
	if t.open {
		t.wins = append(t.wins, window{wall: now.Sub(t.winStart), cpu: cpu - t.winCPU})
	}
	t.open = more
	if !more {
		return nil
	}
	if err := t.probe.run(); err != nil {
		return fmt.Errorf("speed probe: %w", err)
	}
	t.winStart, t.winCPU = time.Now(), cpu
	return nil
}

func (t *tally) fail(format string, args ...any) {
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// check verifies one answer against the plan: an observe must apply the
// whole batch and leave the stream at its planned length; an estimate must
// read the planned length.
func (t *tally) check(w *workload, o *op, a answer) bool {
	if o.kind == opObserve && a.applied != int64(w.batch) {
		t.fail("%s: ack applied %d points, sent %d", streamID(int(o.stream)), a.applied, w.batch)
		return false
	}
	if a.length != o.want {
		t.fail("%s: server reports length %d, want %d", streamID(int(o.stream)), a.length, o.want)
		return false
	}
	return true
}

// replay sends the ops in order, one in flight, checking every answer. With
// rec set it records latencies. With t.probe set it runs the speed probe
// every probeEvery ops, between requests.
func replay(w *workload, c client, ops []op, t *tally, rec bool) error {
	for i := range ops {
		if t.probe != nil && i%probeEvery == 0 {
			if err := t.edge(true); err != nil {
				return err
			}
		}
		o := &ops[i]
		t.attempted++
		a, err := c.do(o)
		if err != nil {
			t.failed++
			t.fail("%v", err)
			continue
		}
		t.retries += a.retries
		if !t.check(w, o, a) {
			t.failed++
			continue
		}
		if o.kind == opObserve {
			t.points += int64(w.batch)
		}
		if !rec {
			continue
		}
		win := len(t.wins)
		switch {
		case o.kind == opObserve:
			t.ackMs = append(t.ackMs, float64(a.dur.Nanoseconds())/1e6)
			t.ackWin = append(t.ackWin, win)
		case o.cold:
			t.coldMs = append(t.coldMs, float64(a.dur.Nanoseconds())/1e6)
			t.coldWin = append(t.coldWin, win)
		default:
			t.cachedUs = append(t.cachedUs, float64(a.dur.Nanoseconds())/1e3)
			t.cachedWin = append(t.cachedWin, win)
		}
	}
	if t.probe != nil {
		return t.edge(false)
	}
	return nil
}

// atRef scales each sample to the reference speed of its window.
func atRef(xs []float64, wins []int, speed []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * speed[wins[i]]
	}
	return out
}

// session is a started server with a connection open.
type session struct {
	sp   *serverProc
	conn client
}

func (s *session) close() {
	s.conn.close()
	s.sp.stop()
}

func openSession(cfg *config, horizon int, data *payloads) (*session, error) {
	sp, err := startServer(cfg, horizon, cfg.workDir)
	if err != nil {
		return nil, err
	}
	c, err := dial(cfg.w, sp, data)
	if err != nil {
		sp.stop()
		return nil, err
	}
	return &session{sp: sp, conn: c}, nil
}

// finalEstimates reads every stream's estimate after the run and checks its
// length against the plan.
func finalEstimates(w *workload, c client, p *plan, t *tally) ([][]float64, error) {
	thetas := make([][]float64, w.streams)
	for s := range thetas {
		o := &op{kind: opEstimate, stream: int32(s), want: p.length[s]}
		a, err := c.do(o)
		if err != nil {
			return nil, fmt.Errorf("final estimate of %s: %w", streamID(s), err)
		}
		if !t.check(w, o, a) {
			continue
		}
		if len(a.theta) != w.dim {
			t.fail("%s: final estimate has %d coordinates, want %d", streamID(s), len(a.theta), w.dim)
			continue
		}
		thetas[s] = a.theta
	}
	return thetas, nil
}

// runMeasured is the untraced run: set-up several times (the last server
// stays), then the measured phase, then verification.
func runMeasured(cfg *config) (*report, error) {
	w := cfg.w
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	horizon := horizonFor(w, cfg.seed, cfg.seconds)
	tau, err := solvePeriod(w, horizon)
	if err != nil {
		return nil, err
	}
	p := newPlan(w, cfg.seed, w.cycles(cfg.seconds), tau)
	data := genData(w, cfg.seed)

	spin, err := startSpinner()
	if err != nil {
		return nil, fmt.Errorf("starting the idle spinner: %w", err)
	}
	defer spin.stop()
	echo, err := startEcho()
	if err != nil {
		return nil, fmt.Errorf("starting the speed probe's echo process: %w", err)
	}
	defer echo.stop()
	var warm *tally
	var sess *session
	defer func() {
		if sess != nil {
			sess.close()
		}
	}()
	var setups, rawSetups []float64
	for i := 0; i < w.setups; i++ {
		if sess != nil {
			sess.close()
			sess = nil
		}
		warm = &tally{probe: newSpeedProbe(echo)}
		meter, start := startSteal(), time.Now()
		if sess, err = openSession(cfg, horizon, data); err != nil {
			return nil, err
		}
		if err := replay(w, sess.conn, p.warm, warm, false); err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, time.Since(start).Seconds()-warm.probe.seconds())
		setups = append(setups, rawSetups[i]*(1-meter.share())*warm.probe.speed())
	}

	// The measured phase: a fixed op sequence. Latency percentiles pool
	// every sample of the phase.
	meter := startSteal()
	m := &tally{probe: newSpeedProbe(echo), server: sess.sp}
	if err := replay(w, sess.conn, p.measured, m, true); err != nil {
		return nil, err
	}
	steal := meter.share()
	speed := m.probe.localSpeeds()
	var wall, refWall, cpu, refCPU float64
	for k, win := range m.wins {
		wall += win.wall.Seconds()
		refWall += win.wall.Seconds() * speed[k]
		cpu += win.cpu
		refCPU += win.cpu * speed[k]
	}
	rss, err := sess.sp.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	thetas, err := finalEstimates(w, sess.conn, p, m)
	if err != nil {
		return nil, err
	}

	errs := append(warm.errs, m.errs...)
	correct := len(errs) == 0
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: wrong:", e)
	}
	risk := 0.0
	if correct {
		risk = excessRisk(w, p, data, thetas)
	}
	// Two corrections make runs on a shared host comparable. Steal: the
	// metrics that time bulk CPU-bound work (throughput, set-up, and the
	// cold reads of a longReads workload) are reported per unit of CPU the
	// host granted, so their wall time is scaled by 1 - steal share. A
	// sub-millisecond round trip is rarely hit by a stolen slice at its
	// median, so the short latencies are not. Speed: every time is scaled to
	// the reference speed, at which the speed probe takes probeRefMicros,
	// window by window in the measured phase and per set-up in set-up.
	acks := atRef(m.ackMs, m.ackWin, speed)
	cached := atRef(m.cachedUs, m.cachedWin, speed)
	cold := quantile(atRef(m.coldMs, m.coldWin, speed), 0.5)
	if w.longReads {
		cold *= 1 - steal
	}
	fmt.Printf("%s: %d measured ops in %.2fs (%d acks, %d cold and %d cached estimates, %d retries), horizon %d; "+
		"host CPU steal %.1f%% while measuring; speed probe median %.6g us while measuring; "+
		"as measured: setup_s %.6g points_per_s %.6g ack_p50_ms %.6g ack_p75_ms %.6g estimate_cold_p50_ms %.6g estimate_cached_p50_us %.6g server_cpu_s %.6g\n",
		w.name, m.attempted, wall, len(m.ackMs), len(m.coldMs), len(m.cachedUs), m.retries, horizon,
		100*steal, median(append([]float64(nil), m.probe.runs...)),
		median(rawSetups), float64(m.points)/wall, quantile(m.ackMs, 0.5), quantile(m.ackMs, 0.75),
		quantile(m.coldMs, 0.5), quantile(m.cachedUs, 0.5), cpu)
	return &report{
		Correct:   correct,
		Attempted: warm.attempted + m.attempted,
		Failed:    warm.failed + m.failed,
		Metrics: map[string]metric{
			"setup_s":                {median(setups), "s"},
			"points_per_s":           {float64(m.points) / (refWall * (1 - steal)), "pts/s"},
			"ack_p50_ms":             {quantile(acks, 0.5), "ms"},
			"ack_p75_ms":             {quantile(acks, 0.75), "ms"},
			"estimate_cold_p50_ms":   {cold, "ms"},
			"estimate_cached_p50_us": {quantile(cached, 0.5), "us"},
			"server_cpu_s":           {refCPU, "s"},
			"server_rss_mb":          {rss, "MiB"},
			"excess_risk":            {risk, "risk"},
		},
	}, nil
}
