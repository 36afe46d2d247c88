package main

import (
	"io"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// speedProbe is a fixed piece of work of the benchmark's own: it parses
// decimal floats, folds outer products into a d×d sum, touches a buffer,
// makes a system call, and sends a byte through a child process and back,
// the kinds of work a request costs the server and the transport. Timed
// between requests, it tracks how fast the machine runs at that moment,
// independent of the program under test.
type speedProbe struct {
	echo *echo
	strs [][]byte
	x    []float64
	acc  []float64
	buf  []byte
	runs []float64 // µs per run
}

func newSpeedProbe(e *echo) *speedProbe {
	p := &speedProbe{echo: e, x: make([]float64, 32), acc: make([]float64, 32*32), buf: make([]byte, 64<<10)}
	v := 0.3183098861837907
	for i := 0; i < 16*32; i++ {
		v = 3.9 * v * (1 - v) // a fixed chaotic sequence in (0, 1)
		p.strs = append(p.strs, strconv.AppendFloat(nil, v-0.5, 'g', -1, 64))
	}
	return p
}

func (p *speedProbe) run() error {
	start := time.Now()
	for rep := 0; rep < 4; rep++ {
		for r := 0; r < 16; r++ {
			for k := range p.x {
				p.x[k], _ = strconv.ParseFloat(string(p.strs[r*32+k]), 64)
			}
			for i, xi := range p.x {
				row := p.acc[i*32 : (i+1)*32]
				for j, xj := range p.x {
					row[j] += xi * xj
				}
			}
		}
		for i := 0; i < len(p.buf); i += 64 {
			p.buf[i]++
		}
		_ = syscall.Getppid()
		for i := 0; i < 4; i++ {
			if err := p.echo.roundTrip(); err != nil {
				return err
			}
		}
	}
	p.runs = append(p.runs, float64(time.Since(start).Nanoseconds())/1e3)
	return nil
}

// probeRefMicros is the probe's time at the reference speed, a round figure
// just under its fastest run medians (about 560 µs) on the 2-vCPU Intel Xeon
// VM where the benchmark was tuned.
const probeRefMicros = 500

// speed is the factor that scales a time measured alongside the probe to the
// reference speed: the reference time over the probe's median time.
func (p *speedProbe) speed() float64 {
	return probeRefMicros / median(append([]float64(nil), p.runs...))
}

// localSpeeds is the speed for each window, one per run, from the runs
// within 16 windows of it: the machine's speed drifts within a run, and
// fewer runs let the probe's own jitter widen the scaled tails.
func (p *speedProbe) localSpeeds() []float64 {
	s := make([]float64, len(p.runs))
	for k := range s {
		near := append([]float64(nil), p.runs[max(0, k-16):min(len(p.runs), k+17)]...)
		s[k] = probeRefMicros / median(near)
	}
	return s
}

// seconds is the time all runs took.
func (p *speedProbe) seconds() float64 {
	var us float64
	for _, v := range p.runs {
		us += v
	}
	return us / 1e6
}

// echo is a child process, cat, that copies its input to its output. A byte
// sent through it and back costs two process switches and four system
// calls, as a request and its answer do.
type echo struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.ReadCloser
	b   [1]byte
}

func startEcho() (*echo, error) {
	e := &echo{cmd: exec.Command("cat")}
	e.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var err error
	if e.in, err = e.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if e.out, err = e.cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	if err := e.cmd.Start(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *echo) roundTrip() error {
	if _, err := e.in.Write(e.b[:]); err != nil {
		return err
	}
	_, err := io.ReadFull(e.out, e.b[:])
	return err
}

// stop closes the child's input, so it exits, and waits for it.
func (e *echo) stop() {
	_ = e.in.Close()
	_ = e.cmd.Wait()
}
