// Command perfbench is the repository's benchmark. It starts a real
// privreg-server child process, drives one workload against it from this
// process over one closed-loop connection, checks every answer, and prints
// one JSON result line:
//
//	perfbench -server bin/privreg-server --workload ingest-wire --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it replays the workload's op sequence one op at a time down the
// stack (transport, Pool, estimator, leaf kernels) and reports per-layer
// metrics. perfbench/run.sh builds both binaries from source and runs this.
// See perfbench/README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

type config struct {
	w         *workload
	seed      uint64
	seconds   int
	serverBin string
	workDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pinning to one CPU:", err)
		os.Exit(1)
	}
	var (
		name    = flag.String("workload", "", "workload name: ingest-wire, release-projected or churn-json")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "nominal length of the measured phase")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		bin     = flag.String("server", "", "path to the privreg-server binary")
		work    = flag.String("work", "", "scratch directory for spill segments")
		commit  = flag.String("commit", "unknown", "source revision, stamped into the report")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need -server, -work, --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := &config{w: w, seed: *seed, seconds: *seconds, serverBin: *bin, workDir: *work}
	printEnv(*commit)
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runMeasured(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printEnv stamps the machine and build the numbers were taken on: nproc
// counts the machine's CPUs, cpus_used those this process (pinned) and its
// server may run on.
func printEnv(commit string) {
	cpu, nproc := "unknown", 0
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			switch k = strings.TrimSpace(k); {
			case ok && k == "processor":
				nproc++
			case ok && k == "model name" && cpu == "unknown":
				cpu = strings.TrimSpace(v)
			}
		}
	}
	env, _ := json.Marshal(map[string]any{
		"nproc":      nproc,
		"cpus_used":  runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpu,
		"go_version": runtime.Version(),
		"commit":     commit,
	})
	fmt.Printf("env %s\n", env)
}
