package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one privreg-server child process.
type serverProc struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	ckptDir  string
	// logFile takes the server's stderr. A file, not a pipe, so no goroutine
	// of this process copies (and allocates for) the server's log lines
	// while the traced pass counts allocations.
	logFile *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns the server for a workload and returns once its
// transport accepts connections. dir is a scratch directory of the run.
func startServer(cfg *config, horizon int, dir string) (*serverProc, error) {
	w := cfg.w
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	sp := &serverProc{httpAddr: httpAddr}
	args := []string{
		"-addr", httpAddr,
		"-mechanism", w.mechanism,
		"-dim", strconv.Itoa(w.dim),
		"-horizon", strconv.Itoa(horizon),
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-epsilon", strconv.FormatFloat(benchPrivacy.Epsilon, 'g', -1, 64),
		"-delta", strconv.FormatFloat(benchPrivacy.Delta, 'g', -1, 64),
		"-checkpoint-interval", "0",
	}
	if !w.json {
		if sp.wireAddr, err = freePort(); err != nil {
			return nil, err
		}
		args = append(args, "-wire-addr", sp.wireAddr)
	}
	if w.storeCap > 0 {
		sp.ckptDir, err = os.MkdirTemp(dir, "spill-")
		if err != nil {
			return nil, err
		}
		args = append(args, "-store-cap", strconv.Itoa(w.storeCap), "-checkpoint-dir", sp.ckptDir)
	}
	if sp.logFile, err = os.CreateTemp(dir, "server-*.log"); err != nil {
		return nil, err
	}
	sp.cmd = exec.Command(cfg.serverBin, args...)
	sp.cmd.Stderr = sp.logFile
	// The server dies with this process, however this process ends.
	sp.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := sp.cmd.Start(); err != nil {
		sp.removeFiles()
		return nil, fmt.Errorf("starting %s: %w", cfg.serverBin, err)
	}
	addr := sp.httpAddr
	if !w.json {
		addr = sp.wireAddr
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return sp, nil
		}
		if time.Now().After(deadline) {
			log, _ := os.ReadFile(sp.logFile.Name())
			sp.stop()
			return nil, fmt.Errorf("server did not listen on %s: %v\n%s", addr, err, log)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the server and waits for it to exit. The run's results are
// already in hand, so there is nothing for a graceful drain to save.
func (sp *serverProc) stop() {
	_ = sp.cmd.Process.Kill()
	_ = sp.cmd.Wait()
	sp.removeFiles()
}

func (sp *serverProc) removeFiles() {
	sp.logFile.Close()
	_ = os.Remove(sp.logFile.Name())
	if sp.ckptDir != "" {
		_ = os.RemoveAll(sp.ckptDir)
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports).
const clockTick = 100

// cpuSeconds is the server's utime+stime so far.
func (sp *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", sp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %q", s)
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMiB is the server's VmHWM.
func (sp *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", sp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", sp.cmd.Process.Pid)
}

// segmentBytes is the median size of the segment files in a spill
// directory, or 0 when there are none.
func segmentBytes(dir string) float64 {
	ents, _ := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	var sizes []float64
	for _, e := range ents {
		if fi, err := os.Stat(e); err == nil {
			sizes = append(sizes, float64(fi.Size()))
		}
	}
	if len(sizes) == 0 {
		return 0
	}
	return median(sizes)
}

// hostCPU is the machine's cumulative busy and steal time in seconds, from
// the cpu line of /proc/stat (busy = user+nice+system+irq+softirq); zeros
// where it cannot be read.
func hostCPU() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := make([]float64, 9)
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseFloat(f[i], 64)
	}
	return (v[1] + v[2] + v[3] + v[6] + v[7]) / clockTick, v[8] / clockTick
}

// stealMeter measures the host's steal share over an interval: the part of
// the CPU time this machine wanted that the hypervisor gave to other guests.
type stealMeter struct{ busy, steal float64 }

func startSteal() stealMeter {
	busy, steal := hostCPU()
	return stealMeter{busy, steal}
}

func (m stealMeter) share() float64 {
	busy, steal := hostCPU()
	ds := steal - m.steal
	if total := busy - m.busy + ds; total > 0 {
		return ds / total
	}
	return 0
}
