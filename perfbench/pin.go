package main

import (
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func affinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func (m cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// pinToOneCPU re-executes this program on the first CPU it may run on; the
// server it starts inherits the mask. Client and server then take turns on
// one vCPU instead of waking each other across two. On a shared 2-vCPU host
// each such wake-up waits for the hypervisor to run the halted vCPU, which
// shows as steal and moved every latency and the server's CPU time with the
// host's load (see README). It returns only on error or when the program
// already runs on one CPU.
func pinToOneCPU() error {
	runtime.LockOSThread() // the mask and the exec apply to this thread
	m, err := affinity()
	if err != nil || m.count() <= 1 {
		return err
	}
	var one cpuMask
	for i, w := range m {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
		return e
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}

// spinner is a child process that spins at SCHED_IDLE priority on this
// process's CPU. It runs only when neither this process nor the server can,
// so the vCPU never halts between a request and its answer. On a shared
// host, waking a halted vCPU waits for the hypervisor; that wait landed on
// the short round trips and moved them with the host's load.
type spinner struct{ cmd *exec.Cmd }

func startSpinner() (*spinner, error) {
	cmd := exec.Command("sh", "-c", "while :; do :; done")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	const schedIdle = 5
	var param [1]int32 // sched_param: priority 0
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(cmd.Process.Pid), schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, e
	}
	return &spinner{cmd}, nil
}

func (s *spinner) stop() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}
