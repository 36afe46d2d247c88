package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"privreg/internal/dp"
	"privreg/internal/wire"
)

// benchPrivacy is the per-stream (ε, δ) every workload serves.
var benchPrivacy = dp.Params{Epsilon: 1, Delta: 1e-6}

// workload is one traffic mix. The op pattern of a workload repeats in
// cycles; a run is a warm-up (part of set-up) followed by a measured phase of
// cyclesPerSec cycles per nominal second, so the measured op sequence is
// fixed by the seed and the run length, never by how fast the server
// answers.
type workload struct {
	name      string
	mechanism string
	json      bool // HTTP/JSON transport; the binary wire protocol otherwise
	// longReads marks a workload whose cold reads are multi-millisecond
	// CPU-bound solves: host steal stretches their median in proportion, so
	// estimate_cold_p50_ms is scaled for steal like the throughput.
	longReads bool
	dim       int
	streams   int
	batch     int
	storeCap  int // spill-store capacity; 0 keeps every stream resident
	// distinct is the number of distinct data batches: per stream on the wire
	// workloads, shared by every stream on churn-json (the stream ID travels
	// in the URL, so one body serves any stream).
	distinct int

	warmCycles   int
	cyclesPerSec int // nominal: sizes the fixed measured sequence
	tracedCycles int
	setups       int

	// cycle appends one cycle of ops; c counts cycles from the start of the
	// run, warm-up included.
	cycle func(g *planner, c int)
}

var workloads = []*workload{
	{
		// Ingest dominates: 64-point batches into 64 gradient (Mechanism 1)
		// streams, each a pair of tree mechanisms over d² = 1024-wide nodes.
		// Every 16 batches a stream is read once cold and four times from the
		// memo.
		name: "ingest-wire", mechanism: "gradient", dim: 32, streams: 64, batch: 64,
		distinct: 16, warmCycles: 2, cyclesPerSec: 3, tracedCycles: 2, setups: 5,
		cycle: func(g *planner, c int) {
			for b := 0; b < 16; b++ {
				for s := 0; s < g.w.streams; s++ {
					g.observe(s, g.w.block(s, c*16+b))
				}
			}
			for s := 0; s < g.w.streams; s++ {
				for r := 0; r < 5; r++ {
					g.estimate(s)
				}
			}
		},
	},
	{
		// Releases dominate: a cold projected (Mechanism 2) estimate costs a
		// JL-space noisy PGD plus a lift, two orders of magnitude above an
		// ack. 8 streams, a cold estimate every 4 batches.
		name: "release-projected", mechanism: "projected", longReads: true, dim: 32, streams: 8, batch: 32,
		distinct: 16, warmCycles: 4, cyclesPerSec: 6, tracedCycles: 4, setups: 5,
		cycle: func(g *planner, c int) {
			for s := 0; s < g.w.streams; s++ {
				for b := 0; b < 4; b++ {
					g.observe(s, g.w.block(s, c*4+b))
				}
				for r := 0; r < 9; r++ {
					g.estimate(s)
				}
			}
		},
	},
	{
		// Many cold streams over JSON: 1024 generic-erm streams under a
		// Zipf(1.1) skew over a 512-estimator store, so about one op in ten
		// evicts and faults in through the codec; 20% estimates. With a
		// 128-estimator store three ops in ten fault, and the ack p75 sat on
		// the step between resident and faulting acks.
		// The first warm-up cycle creates every stream so no estimate ever
		// reads an unknown one.
		name: "churn-json", mechanism: "generic-erm", json: true, dim: 32, streams: 1024, batch: 16,
		storeCap: 512, distinct: 256, warmCycles: 2, cyclesPerSec: 16, tracedCycles: 6, setups: 3,
		cycle: func(g *planner, c int) {
			if c == 0 {
				for s := 0; s < g.w.streams; s++ {
					g.observe(s, g.w.block(s, g.rng.IntN(g.w.distinct)))
				}
				return
			}
			for i := 0; i < 256; i++ {
				s := int(g.zipf.Uint64())
				if g.rng.Float64() < 0.2 {
					g.estimate(s)
				} else {
					g.observe(s, g.w.block(s, g.rng.IntN(g.w.distinct)))
				}
			}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

type opKind uint8

const (
	opObserve opKind = iota
	opEstimate
)

// op is one request. want is the stream length the server must report:
// after applying the batch for an observe, at the read for an estimate.
type op struct {
	kind   opKind
	cold   bool // estimate: the read runs a solve (see planner.estimate)
	stream int32
	block  int32 // observe: index of the data batch
	want   int64
}

// plan is a run's whole op sequence plus what the server's state must be
// afterwards.
type plan struct {
	warm, measured []op
	// length is each stream's final length; counts[s][j] how often stream s
	// observed its data batch j (the stream's history, as a multiset).
	length []int64
	counts [][]int32
}

// planner builds a plan.
type planner struct {
	w      *workload
	rng    *rand.Rand
	zipf   *rand.Zipf
	cur    []op
	length []int64
	tau    int64   // points per solve period
	solved []int64 // solve period of each stream's last solve
	counts [][]int32
}

// newPlan builds a run's ops. tau is the solve period of the mechanism, as
// solvePeriod gives it; it only decides which reads count as cold.
func newPlan(w *workload, seed uint64, cycles, tau int) *plan {
	rng := rand.New(rand.NewPCG(seed, 0x6f70)) // "op"
	g := &planner{
		w:      w,
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.1, 1, uint64(w.streams-1)),
		length: make([]int64, w.streams),
		tau:    int64(tau),
		solved: make([]int64, w.streams),
		counts: make([][]int32, w.streams),
	}
	for s := range g.counts {
		g.counts[s] = make([]int32, w.distinct)
	}
	p := &plan{}
	c := 0
	run := func(n int) []op {
		g.cur = nil
		for i := 0; i < n; i++ {
			w.cycle(g, c)
			c++
		}
		return g.cur
	}
	p.warm = run(w.warmCycles)
	p.measured = run(cycles)
	p.length, p.counts = g.length, g.counts
	return p
}

func (g *planner) observe(s, block int) {
	g.length[s] += int64(g.w.batch)
	g.counts[s][block%g.w.distinct]++
	g.cur = append(g.cur, op{kind: opObserve, stream: int32(s), block: int32(block), want: g.length[s]})
}

// estimate appends a read. It is cold when it runs a solve: when the stream
// entered a new solve period since its last solve. The regression mechanisms
// solve on the first read after any new point (tau 1); generic-erm on the
// first read after each τ boundary, and answers other reads from its memo.
func (g *planner) estimate(s int) {
	period := g.length[s] / g.tau
	g.cur = append(g.cur, op{kind: opEstimate, stream: int32(s), cold: period > g.solved[s], want: g.length[s]})
	g.solved[s] = period
}

// maxLength is the longest stream a plan builds; the server's horizon must
// hold it.
func (p *plan) maxLength() int64 {
	var m int64
	for _, n := range p.length {
		m = max(m, n)
	}
	return m
}

// cycles is the number of measured cycles of a run of nominal length
// seconds.
func (w *workload) cycles(seconds int) int { return seconds * w.cyclesPerSec }

// horizonFor sizes the per-stream horizon T for a run of the given length:
// the next power of two above the longest stream of the untraced plan, so
// traced and untraced runs serve the same T.
func horizonFor(w *workload, seed uint64, seconds int) int {
	n := newPlan(w, seed, w.cycles(seconds), 1).maxLength()
	h := 1
	for int64(h) < n {
		h <<= 1
	}
	return h
}

func streamID(s int) string { return fmt.Sprintf("s%04d", s) }

// payloads holds every request the generator sends, encoded before any
// timing starts, and the raw rows the in-process layers are fed.
type payloads struct {
	xs, ys [][]float64 // [block]
	// Wire: one observe frame per block and one estimate frame per stream.
	obsFrame [][]byte
	estFrame [][]byte
	// JSON: per-stream request-line prefixes and per-block
	// "Content-Length ... body" suffixes, written together with one writev.
	obsHead [][]byte
	obsBody [][]byte
	estReq  [][]byte
}

// block is the index of stream s's j-th distinct data batch (j taken
// modulo distinct).
func (w *workload) block(s, j int) int {
	if w.json {
		return j % w.distinct
	}
	return s*w.distinct + j%w.distinct
}

func (w *workload) blocks() int {
	if w.json {
		return w.distinct
	}
	return w.streams * w.distinct
}

// genData draws every data batch from the seed. Covariates are uniform in
// the cube scaled into the unit ball and responses follow a fixed linear
// model with Gaussian noise, clipped to [-1, 1], so no mechanism clamps and
// the exact least-squares risk is well defined on the raw history.
func genData(w *workload, seed uint64) *payloads {
	rng := rand.New(rand.NewPCG(seed, 0x64617461)) // "data"
	d := w.dim
	theta := make([]float64, d)
	var nrm float64
	for i := range theta {
		theta[i] = rng.NormFloat64()
		nrm += theta[i] * theta[i]
	}
	for i := range theta {
		theta[i] *= 0.8 / math.Sqrt(nrm)
	}
	scale := 1 / math.Sqrt(float64(d))
	nb := w.blocks()
	p := &payloads{xs: make([][]float64, nb), ys: make([][]float64, nb)}
	for b := 0; b < nb; b++ {
		xs := make([]float64, w.batch*d)
		ys := make([]float64, w.batch)
		for r := 0; r < w.batch; r++ {
			var dot float64
			for k := 0; k < d; k++ {
				v := (2*rng.Float64() - 1) * scale
				xs[r*d+k] = v
				dot += v * theta[k]
			}
			ys[r] = max(-1, min(1, dot+0.1*rng.NormFloat64()))
		}
		p.xs[b], p.ys[b] = xs, ys
	}
	if w.json {
		p.encodeJSON(w)
	} else {
		p.encodeWire(w)
	}
	return p
}

// Request IDs are fixed per payload: the connection has one request in
// flight, so reusing an ID across repeats of the same frame is unambiguous.
const estReqBase = 1 << 40

func (p *payloads) encodeWire(w *workload) {
	var b wire.Builder
	p.obsFrame = make([][]byte, len(p.xs))
	for blk := range p.xs {
		b.Reset()
		wire.AppendObserve(&b, uint64(blk+1), 0, streamID(blk/w.distinct), -1, w.dim, p.xs[blk], p.ys[blk])
		p.obsFrame[blk] = append([]byte(nil), b.Bytes()...)
	}
	p.estFrame = make([][]byte, w.streams)
	for s := range p.estFrame {
		b.Reset()
		wire.AppendEstimate(&b, uint64(estReqBase+s), 0, streamID(s), 0)
		p.estFrame[s] = append([]byte(nil), b.Bytes()...)
	}
}

func (p *payloads) encodeJSON(w *workload) {
	p.obsHead = make([][]byte, w.streams)
	p.estReq = make([][]byte, w.streams)
	for s := range p.obsHead {
		p.obsHead[s] = []byte("POST /v1/streams/" + streamID(s) + "/observe HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n")
		p.estReq[s] = []byte("GET /v1/streams/" + streamID(s) + "/estimate HTTP/1.1\r\nHost: bench\r\n\r\n")
	}
	p.obsBody = make([][]byte, len(p.xs))
	for blk := range p.xs {
		body := []byte(`{"xs":[`)
		for r := 0; r < w.batch; r++ {
			if r > 0 {
				body = append(body, ',')
			}
			body = append(body, '[')
			for k := 0; k < w.dim; k++ {
				if k > 0 {
					body = append(body, ',')
				}
				body = strconv.AppendFloat(body, p.xs[blk][r*w.dim+k], 'g', -1, 64)
			}
			body = append(body, ']')
		}
		body = append(body, `],"ys":[`...)
		for r := 0; r < w.batch; r++ {
			if r > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, p.ys[blk][r], 'g', -1, 64)
		}
		body = append(body, "]}"...)
		head := "Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
		p.obsBody[blk] = append([]byte(head), body...)
	}
}
