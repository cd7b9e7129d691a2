// Command perfbench is the repository benchmark: it drives HELIX through its
// public entry points (core.Open / Session.RunCtx for developer sessions,
// serve.New behind its HTTP handler for the multi-tenant daemon), checks
// every output against a no-reuse reference, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a separate traced
// pass) named in BENCHMARK.json. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload census-session --seed 2018 --seconds 20 --trace 0
//
// See perfbench/README.md for the metric definitions and the layer map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is what every workload runner receives.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	dir      string // private scratch directory, removed at exit
	traceOut string // Chrome trace-event file written by a traced run
	nproc    int
}

// outcome is one workload run's result before it is checked against the
// metric table.
type outcome struct {
	attempted, failed int
	// invalid lists reasons the run must not pass even when every output
	// was correct (for example a load generator that fell behind).
	invalid []string
	e2e     map[string]float64
	layer   map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// table is kept in one place, and a run that cannot fill every listed
// metric fails instead of printing a partial result.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var runners = map[string]func(runConfig) (*outcome, error){
	"census-session": func(c runConfig) (*outcome, error) { return runSessions(c, censusScenario) },
	"ie-session":     func(c runConfig) (*outcome, error) { return runSessions(c, ieScenario) },
	"serve-mix":      runServeMix,
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: census-session, ie-session or serve-mix")
	seed := flag.Int64("seed", 2018, "workload seed (inputs are generated from it)")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = also run a traced pass and report the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch stores and traces")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition holding the metric table")
	flag.Parse()

	if err := run(*workloadName, *seed, *seconds, *trace, *out, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, out, specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parse %s: %w", specPath, err)
	}
	runner, ok := runners[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	listed := false
	for _, w := range spec.Workloads {
		listed = listed || w.Name == name
	}
	if !listed {
		return fmt.Errorf("workload %q is not listed in %s", name, specPath)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	dir, err := filepath.Abs(filepath.Join(out, fmt.Sprintf("run-%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{
		workload: name,
		seed:     seed,
		window:   time.Duration(seconds * float64(time.Second)),
		trace:    trace == 1,
		dir:      dir,
		traceOut: filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.json", name, seed)),
		nproc:    runtime.NumCPU(),
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d\n",
		name, seed, seconds, trace, cfg.nproc, runtime.GOMAXPROCS(0))

	o, err := runner(cfg)
	if err != nil {
		return err
	}
	if o.e2e["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return err
	}
	fmt.Printf("   %-30s %.6g\n", "peak_rss_mb", o.e2e["peak_rss_mb"])
	want, got := spec.EndToEnd, o.e2e
	if cfg.trace {
		want, got = spec.PerLayer, o.layer
	}
	res := result{
		Correct:   o.failed == 0 && len(o.invalid) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure metric %q", name, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s measured %s = %v", name, m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", name)
	}
	for _, reason := range o.invalid {
		fmt.Println("INVALID:", reason)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("run failed: %d of %d operations failed, %d validity violations", o.failed, o.attempted, len(o.invalid))
	}
	return nil
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(title string, m map[string]float64) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("-- %s\n", title)
	for _, n := range names {
		fmt.Printf("   %-30s %.6g\n", n, m[n])
	}
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// setupReps is how many times a run repeats its set-up; setup_s is their
// median, so one slow repetition does not move it.
const setupReps = 3

// hostLayer records the run's parallelism settings among the per-layer
// metrics, so every result says what it was measured with.
func hostLayer(o *outcome, nproc, connections, workers int) {
	o.layer["host.nproc"] = float64(nproc)
	o.layer["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	o.layer["loadgen.connections"] = float64(connections)
	o.layer["exec.workers"] = float64(workers)
}
