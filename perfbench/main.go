// perfbench is the repository's benchmark. For one named workload it
// builds a fresh seeded Sequoia cluster in-process, drives it closed-loop
// through the pkg/mocha wire client for a fixed window, checks every
// result against a single-site data-shipping oracle, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with no
// tracing); with -trace 1 they are the per-layer ones, taken from
// benchmark-side spans around isolated calls into each layer made beside
// the real queries, plus the tracing overhead.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper-10mbps --seed 1 --seconds 55 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mocha/internal/exec"
	"mocha/pkg/mocha"
)

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 5

// minBeyondP90 is how many samples p90 must have beyond it.
const minBeyondP90 = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: paper-10mbps, mvm-unshaped or dataship-governed")
	seed := flag.Int64("seed", 1, "workload seed: dataset generation and each client's starting offset in the mix")
	seconds := flag.Int("seconds", 55, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".", "directory the traced run writes its spans to")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	w.name = *name
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s scale=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), scale)
	fmt.Printf("workload: %s seed=%d clients=%d loop=closed window=%ds trace=%d\n",
		w.name, *seed, w.clients, *seconds, *trace)

	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second}
	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced(*out)
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(2)
}

// bench holds one run's state.
type bench struct {
	w      workload
	seed   int64
	window time.Duration

	dep     *deployment
	want    []answer
	ordered []bool
	setupS  float64
	// problems are invariant violations: each makes the run incorrect.
	problems []string
}

// setup builds the deployment several times, each time through
// data generation, load, catalog statistics and the first (cold,
// code-shipping) run of every mix query, and keeps the last one. The
// oracle is computed afterwards, outside set-up and the window.
func (b *bench) setup() error {
	var times []float64
	var cold [][]answer
	for i := 0; i < setupRepeats; i++ {
		if b.dep != nil {
			b.dep.Close()
			b.dep = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		d, err := build(b.w, b.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.dep = d
		var answers []answer
		b.ordered = b.ordered[:0]
		for qi, sql := range d.mix {
			res, err := d.cluster.ExecuteContext(context.Background(), sql)
			if err != nil {
				return fmt.Errorf("set-up: cold run of query %d: %w", qi, err)
			}
			ordered := len(res.Plan.OrderBy) > 0
			b.ordered = append(b.ordered, ordered)
			answers = append(answers, newAnswer(res.Rows, ordered))
		}
		times = append(times, time.Since(t0).Seconds())
		cold = append(cold, answers)
	}
	b.setupS = median(times)
	fmt.Printf("setup: %s s each, median %.4f s\n", floats(times, 4), b.setupS)

	want, err := oracle(b.seed, b.dep.mix)
	if err != nil {
		return err
	}
	b.want = want
	for _, answers := range cold {
		for qi, a := range answers {
			if !slices.Equal(a, want[qi]) {
				b.problems = append(b.problems, fmt.Sprintf("cold run of query %d disagrees with the oracle", qi))
			}
		}
	}
	if b.w.faultSite != "" {
		b.dep.cluster.SetFault(b.w.faultSite, &mocha.FaultPlan{DropEveryNthConn: b.w.faultNth})
	}
	runtime.GC()
	debug.FreeOSMemory()
	// Start the peak-RSS count afresh, so peak_rss_bytes is the timed
	// window's own peak rather than that of set-up or the oracle.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		logf("cannot reset the peak RSS count; peak_rss_bytes includes set-up: %v", err)
	}
	return nil
}

// loop runs one closed-loop window of the given length.
func (b *bench) loop(window time.Duration, probe probeFunc) ([]sample, time.Duration) {
	n := int64(len(b.dep.mix))
	return runLoop(loopConfig{
		dep: b.dep, clients: b.w.clients, offset: int((b.seed%n + n) % n),
		window: window, want: b.want, ordered: b.ordered, probe: probe,
	})
}

// tally summarizes a window's samples.
type tally struct {
	attempted, completed, failed, errors, rejected, wrong int
	lat                                                   []float64 // sorted, correct queries only
	perQuery                                              map[int][]float64
	cvdt                                                  map[int][]float64
}

func count(samples []sample) tally {
	t := tally{perQuery: map[int][]float64{}, cvdt: map[int][]float64{}}
	for _, s := range samples {
		t.attempted++
		switch {
		case s.rejected:
			t.rejected++
		case s.err != nil:
			t.errors++
		case s.wrong:
			t.wrong++
		default:
			t.completed++
			t.lat = append(t.lat, s.latMS)
			t.perQuery[s.query] = append(t.perQuery[s.query], s.latMS)
			t.cvdt[s.query] = append(t.cvdt[s.query], float64(s.stats.CVDT))
		}
	}
	t.failed = t.errors + t.rejected + t.wrong
	sort.Float64s(t.lat)
	return t
}

// cvdtPerQuery is the mean CVDT with every mix query weighted equally,
// so it does not depend on where in the mix the window happened to end.
func (t tally) cvdtPerQuery() float64 {
	var sum float64
	for _, v := range t.cvdt {
		var q float64
		for _, x := range v {
			q += x
		}
		sum += q / float64(len(v))
	}
	return sum / float64(max(len(t.cvdt), 1))
}

// printPerQuery prints each mix position's latency quartiles, so a
// percentile that lands on a query-class boundary is visible.
func (b *bench) printPerQuery(t tally) {
	for qi, sql := range b.dep.mix {
		v := append([]float64(nil), t.perQuery[qi]...)
		sort.Float64s(v)
		fmt.Printf("query %d: n=%d p25=%.3f median=%.3f p75=%.3f ms  %s\n", qi, len(v),
			percentile(v, 0.25), percentile(v, 0.5), percentile(v, 0.75), oneLine(sql))
	}
}

func (b *bench) untraced() (result, error) {
	if err := b.setup(); err != nil {
		return result{}, err
	}
	defer b.dep.Close()
	cpu0 := cpuTime()
	samples, elapsed := b.loop(b.window, nil)
	cpu := cpuTime() - cpu0
	t := count(samples)
	b.checkGovernors()
	b.printPerQuery(t)
	beyond := len(t.lat) - int(0.9*float64(len(t.lat))+0.5)
	if beyond < minBeyondP90 {
		logf("warning: p90 has only %d samples beyond it; it needs %d", beyond, minBeyondP90)
	}
	rss, err := peakRSS()
	if err != nil {
		return result{}, err
	}
	completed := float64(max(t.completed, 1))
	m := map[string]metric{
		"throughput_qps":       {float64(t.completed) / elapsed.Seconds(), "1/s"},
		"latency_p50_ms":       {percentile(t.lat, 0.50), "ms"},
		"latency_p90_ms":       {percentile(t.lat, 0.90), "ms"},
		"success_frac":         {float64(t.completed) / float64(max(t.attempted, 1)), "frac"},
		"cvdt_bytes_per_query": {t.cvdtPerQuery(), "B"},
		"cpu_ms_per_query":     {cpu.Seconds() * 1000 / completed, "ms"},
		"peak_rss_bytes":       {float64(rss), "B"},
		"setup_s":              {b.setupS, "s"},
	}
	fmt.Printf("window: %.3f s, %d attempted, %d completed, %d errors, %d rejected, %d wrong\n",
		elapsed.Seconds(), t.attempted, t.completed, t.errors, t.rejected, t.wrong)
	fmt.Printf("latency samples: %d (p90 has %d beyond it)\n", len(t.lat), beyond)
	fmt.Printf("failed_frac: %.6f frac\n", float64(t.failed)/float64(max(t.attempted, 1)))
	printMetrics(m)
	printBuckets(samples)
	return b.finish(t, m), nil
}

// finish assembles the result line; any invariant violation or wrong
// answer makes it incorrect.
func (b *bench) finish(t tally, m map[string]metric) result {
	if t.wrong > 0 {
		b.problems = append(b.problems, fmt.Sprintf("%d wrong results", t.wrong))
	}
	for _, p := range b.problems {
		logf("FAIL: %s", p)
	}
	return result{
		Correct:   len(b.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	}
}

// governors returns every governor in the deployment, by site.
func (b *bench) governors() map[string]*exec.Governor {
	out := map[string]*exec.Governor{}
	if g := b.dep.cluster.QPCGovernor(); g != nil {
		out["qpc"] = g
	}
	for _, site := range []string{"site1", "site2", "site3"} {
		if g, err := b.dep.cluster.DAPGovernor(site); err == nil && g != nil {
			out[site] = g
		}
	}
	return out
}

func (b *bench) checkGovernors() {
	for site, g := range b.governors() {
		if g.HighWater() > g.Budget() {
			b.problems = append(b.problems, fmt.Sprintf("%s governor high water %d B exceeds its %d B budget",
				site, g.HighWater(), g.Budget()))
		}
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s: %s %s\n", n, strconv.FormatFloat(m[n].Value, 'g', -1, 64), m[n].Unit)
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads the process's peak resident set (VmHWM).
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func floats(vs []float64, prec int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}

func oneLine(sql string) string { return strings.Join(strings.Fields(sql), " ") }

// printBuckets prints completions per 5 s of the window, which shows
// whether throughput levelled off.
func printBuckets(samples []sample) {
	var n []int
	for _, s := range samples {
		i := int(s.at / (5 * time.Second))
		for len(n) <= i {
			n = append(n, 0)
		}
		n[i]++
	}
	fmt.Printf("completions per 5 s: %v\n", n)
}
