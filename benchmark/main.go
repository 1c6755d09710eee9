// Command benchmark is the repository's benchmark: four workloads over
// the measurement pipeline (batch replay, window replay, the live daemon,
// the in-memory paper run), each reporting the end-to-end metrics a user
// sees or, in a traced run, the per-layer ledger behind them. It drives
// the product only through its packages' public functions and times
// every layer from outside. README.md in this directory is the
// specification; BENCHMARK.json at the root of the repository names the
// workloads, metrics and bounds.
//
// One run measures one workload and prints one JSON object as its last
// line of standard output:
//
//	benchmark/run.sh --workload replay-batch --seed 71 --seconds 25 --trace 0
//
// and -compare judges two sets of runs against the bounds:
//
//	benchmark/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// runConfig is one run's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	// dir is the run's private directory for feeds and checkpoints,
	// removed when the run ends; traceOut, if set, is where a traced run
	// writes its spans.
	dir      string
	traceOut string
}

// budget is the share of the run's measuring time given to one phase.
func (rc runConfig) budget(share float64) time.Duration {
	return time.Duration(rc.seconds * share * float64(time.Second))
}

// minPasses is the fewest timed passes a phase accepts, however short
// its budget: a median needs a few samples, and alternating phases need
// two of each kind.
const minPasses = 4

// runPasses calls pass with 0, 1, 2, ... until the budget is spent and
// at least minPasses passes ran, sampling the box clock between passes.
func runPasses(budget time.Duration, box *boxClock, pass func(i int) error) error {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < budget; i++ {
		box.tick()
		if err := pass(i); err != nil {
			return err
		}
	}
	return nil
}

// firstTurn splits passes 0, 1, 2, ... between two kinds that take turns
// (traced and untraced, one stream and two) in the order A B B A. Plain
// alternation would put one kind on every even pass, and anything that
// comes round every second pass, a garbage collection say, would land on
// that kind alone.
func firstTurn(i int) bool { return i%4 == 0 || i%4 == 3 }

// runWorkload measures one workload and shapes what it found.
func runWorkload(rc runConfig) (result, []string, error) {
	res, r, err := measureWorkload(rc)
	return res, r.problems, err
}

func measureWorkload(rc runConfig) (result, *report, error) {
	r := newReport()
	var err error
	switch rc.workload {
	case "replay-batch":
		err = runReplay(rc, false, r)
	case "replay-window":
		err = runReplay(rc, true, r)
	case "daemon-live":
		err = runDaemon(rc, r)
	case "paper-batch":
		err = runPaper(rc, r)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", rc.workload, workloadNames)
	}
	if err != nil {
		return result{}, r, err
	}
	defs, zeroOK := endToEnd, false
	if rc.trace {
		defs, zeroOK = perLayer, true
	}
	res, err := r.result(defs, zeroOK)
	return res, r, err
}

// runRecord is one line of an -out file: the result with what produced
// it, so -compare can group runs and a reader can tell where they ran.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Result     result  `json:"result"`
	// Measured is the wall-clock value behind each timing in Result and
	// the box clock's reading it was scaled by.
	Measured map[string]measured `json:"measured,omitempty"`
}

// vcsRevision is the commit the binary was built from, when the build
// ran inside a git checkout (the driver's checkouts are not).
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to measure: replay-batch, replay-window, daemon-live or paper-batch")
	seed := fs.Int64("seed", 71, "seed every input is generated from")
	seconds := fs.Float64("seconds", 25, "how long to measure (set-up comes on top)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	scratch := fs.String("scratch", os.TempDir(), "directory the run makes its private directory for feeds and checkpoints in")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans to this file (default: keep none)")
	out := fs.String("out", "", "append the run, with its environment, as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -out files (arguments: a.jsonl b.jsonl) against the bounds in -spec")
	spec := fs.String("spec", "BENCHMARK.json", "with -compare: the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two files")
			return 2
		}
		ok, err := compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "benchmark: -workload must be one of %v\n", workloadNames)
		return 2
	}
	dir, err := os.MkdirTemp(*scratch, "iotbench-*")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	// A run cut short by a signal still removes its feeds and checkpoints.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(130)
	}()
	rc := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		sizes: fullSizes, dir: dir, traceOut: *traceOut,
	}
	res, rep, err := measureWorkload(rc)
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "benchmark: check failed:", p)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if rc.trace && rc.traceOut != "" {
		fmt.Fprintln(stderr, "benchmark: spans written to", rc.traceOut)
	}
	if *out != "" {
		err := appendRecord(*out, runRecord{
			Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: vcsRevision(), Result: res, Measured: rep.measured,
		})
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
