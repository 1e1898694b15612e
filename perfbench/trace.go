package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/sqlparser"
	"mocha/internal/storage"
	"mocha/internal/types"
	"mocha/internal/vm"
	"mocha/internal/wire"
	"mocha/pkg/mocha"
)

// probeFunc runs the traced run's isolated layer calls beside one real
// query that the closed loop has just completed.
type probeFunc func(client, query int, rows []mocha.Tuple, schema mocha.Schema, st mocha.QueryStats, latMS float64)

// span is one benchmark-side timed call. Spans of one loop iteration
// share Query; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

type openSpan struct {
	r *recorder
	s span
}

func (r *recorder) begin(name string, parent, query int64) *openSpan {
	return &openSpan{r: r, s: span{ID: r.ids.Add(1), Parent: parent, Query: query, Name: name,
		Start: time.Since(r.t0).Nanoseconds()}}
}

// end records the span and returns its duration.
func (o *openSpan) end() time.Duration {
	o.s.End = time.Since(o.r.t0).Nanoseconds()
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
	return time.Duration(o.s.End - o.s.Start)
}

// selfTimes is each span name's self time: its duration minus the part
// of that interval its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSums accumulates what the probes measure.
type layerSums struct {
	mu                 sync.Mutex
	queries            int64
	prepare            time.Duration
	estWorst           float64
	scan               time.Duration
	scanBytes          int64
	vmTime, nativeTime time.Duration
	vmInstrs           int64
	enc, dec           time.Duration
	wireBytes          int64
	transmit           time.Duration
	opSelf             time.Duration
	deployMS, delivery float64
}

// prober makes the isolated per-layer calls for one deployment.
type prober struct {
	b    *bench
	rec  *recorder
	sums layerSums
	iter atomic.Int64

	cat    *catalog.Catalog
	native core.NativeBinder
	shaper *mocha.Shaper
	// progs caches decoded, verified classes by content digest, so the
	// VM spans time execution rather than decoding.
	mu    sync.Mutex
	progs map[string]*vm.Program
	est   map[int][2]int64 // mix query → estimated and measured CVDT
}

func newProber(b *bench, rec *recorder) *prober {
	p := &prober{b: b, rec: rec, cat: b.dep.cluster.Catalog(), native: core.NativeBinder{Reg: ops.Builtins()},
		progs: map[string]*vm.Program{}, est: map[int][2]int64{}}
	if b.w.shaped {
		p.shaper = mocha.Ethernet10Mbps()
	}
	return p
}

func (p *prober) problem(format string, args ...any) {
	p.sums.mu.Lock()
	p.b.problems = append(p.b.problems, fmt.Sprintf(format, args...))
	p.sums.mu.Unlock()
}

// probe is the probeFunc: the real query becomes a root span, and the
// isolated calls into each layer hang under a sibling "probe" root.
func (p *prober) probe(_, qi int, rows []mocha.Tuple, schema mocha.Schema, st mocha.QueryStats, latMS float64) {
	qid := p.iter.Add(1)
	now := time.Since(p.rec.t0).Nanoseconds()
	p.rec.mu.Lock()
	p.rec.spans = append(p.rec.spans, span{ID: p.rec.ids.Add(1), Query: qid, Name: "mocha.query",
		Start: now - int64(latMS*1e6), End: now})
	p.rec.mu.Unlock()

	sql := p.b.dep.mix[qi]
	root := p.rec.begin("probe", 0, qid)
	defer root.end()

	prep := p.rec.begin("core.prepare", root.s.ID, qid)
	sp := p.rec.begin("sqlparser.parse", prep.s.ID, qid)
	sel, err := sqlparser.Parse(sql)
	sp.end()
	if err != nil {
		p.problem("query %d: parse: %v", qi, err)
		return
	}
	sp = p.rec.begin("core.bind", prep.s.ID, qid)
	bound, err := core.Bind(sel, p.cat)
	sp.end()
	if err != nil {
		p.problem("query %d: bind: %v", qi, err)
		return
	}
	opt := core.NewOptimizer(p.cat)
	opt.Strategy = p.b.w.strategy
	opt.Search = mocha.CutSearchRanked
	sp = p.rec.begin("core.plan", prep.s.ID, qid)
	_, err = opt.Plan(bound)
	sp.end()
	prepDur := prep.end()
	if err != nil {
		p.problem("query %d: plan: %v", qi, err)
		return
	}

	sp = p.rec.begin("qpc.execute", root.s.ID, qid)
	res, err := p.b.dep.cluster.ExecuteContext(context.Background(), sql)
	sp.end()
	if err != nil {
		p.problem("query %d: in-process execute: %v", qi, err)
		return
	}
	if !slices.Equal(newAnswer(res.Rows, p.b.ordered[qi]), p.b.want[qi]) {
		p.problem("query %d: in-process execute disagrees with the oracle", qi)
	}
	if got := res.Trace.NetBytes(); got != res.Stats.CVDT {
		p.problem("query %d: trace spans carry %d net bytes, CVDT is %d", qi, got, res.Stats.CVDT)
	}
	var opSelf time.Duration
	for _, s := range res.Trace.Spans() {
		if s.Site == "" && strings.HasPrefix(s.Name, obs.SpanOpPrefix) && !networkWait(s.Name) {
			opSelf += time.Duration(s.DurMicros) * time.Microsecond
		}
	}
	est := estRatio(res.Plan.Est.CVDT, res.Stats.CVDT)
	p.mu.Lock()
	p.est[qi] = [2]int64{res.Plan.Est.CVDT, res.Stats.CVDT}
	p.mu.Unlock()

	var f fragSums
	for _, frag := range res.Plan.Fragments {
		p.fragment(frag, root.s.ID, qid, qi, &f)
	}
	p.wireRoundTrip(rows, schema, root.s.ID, qid, qi, &f)

	s := &p.sums
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	s.prepare += prepDur
	s.estWorst = max(s.estWorst, est)
	s.scan += f.scan
	s.scanBytes += f.scanBytes
	s.vmTime += f.vm
	s.nativeTime += f.native
	s.vmInstrs += f.instrs
	s.enc += f.enc
	s.dec += f.dec
	s.wireBytes += f.wireBytes
	s.transmit += p.shaper.TransmissionTime(st.CVDT + st.ResultBytes)
	s.opSelf += opSelf
	s.deployMS += st.DeployMS
	s.delivery += latMS - st.TotalMS
}

// networkWait reports QPC operators whose self time is time blocked on
// remote streams rather than operator work.
func networkWait(name string) bool {
	for _, p := range []string{obs.OpRemote, obs.OpPrefetch, obs.OpGather} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// estRatio is how far the optimizer's CVDT estimate is from the
// measured CVDT, as a factor >= 1 in either direction.
func estRatio(est, got int64) float64 {
	if est <= 0 || got <= 0 {
		return 1
	}
	r := float64(est) / float64(got)
	return math.Max(r, 1/r)
}

// fragSums is one query's per-fragment probe totals.
type fragSums struct {
	scan, vm, native, enc, dec   time.Duration
	scanBytes, instrs, wireBytes int64
}

// fragment scans every table the fragment reads straight from its
// site's store, runs the fragment's shipped classes over those rows
// through the MVM and the same operators natively, and round-trips the
// rows it would ship through the wire batch codec.
func (p *prober) fragment(frag *core.Fragment, parent, qid int64, qi int, f *fragSums) {
	type target struct{ site, table string }
	targets := []target{{frag.Site, frag.Table}}
	if len(frag.Parts) > 0 {
		targets = targets[:0]
		for _, pt := range frag.Parts {
			targets = append(targets, target{pt.Site, pt.Table})
		}
	}
	var in []types.Tuple
	for _, t := range targets {
		tbl, ok := p.b.dep.stores[t.site].Table(t.table)
		if !ok {
			p.problem("query %d: no table %s at %s", qi, t.table, t.site)
			return
		}
		sp := p.rec.begin("storage.scan", parent, qid)
		rows, bytes, err := scanTable(tbl)
		f.scan += sp.end()
		if err != nil {
			p.problem("query %d: scan %s: %v", qi, t.table, err)
			return
		}
		f.scanBytes += bytes
		for _, r := range rows {
			ext := make(types.Tuple, len(frag.Cols))
			for i, c := range frag.Cols {
				ext[i] = r[c]
			}
			in = append(in, ext)
		}
	}

	var shipped []types.Tuple
	if len(frag.Code) == 0 {
		out, _, err := runFragment(frag, p.native, in)
		if err != nil {
			p.problem("query %d: fragment on %s: %v", qi, frag.Table, err)
			return
		}
		shipped = out
	} else {
		vb, err := p.vmBinder(frag.Code)
		if err != nil {
			p.problem("query %d: %v", qi, err)
			return
		}
		sp := p.rec.begin("vm.fragment", parent, qid)
		vmOut, vmDur, err := runFragment(frag, vb, in)
		sp.end()
		if err != nil {
			p.problem("query %d: MVM fragment on %s: %v", qi, frag.Table, err)
			return
		}
		sp = p.rec.begin("ops.native", parent, qid)
		natOut, natDur, err := runFragment(frag, p.native, in)
		sp.end()
		if err != nil {
			p.problem("query %d: native fragment on %s: %v", qi, frag.Table, err)
			return
		}
		if !slices.Equal(newAnswer(vmOut, true), newAnswer(natOut, true)) {
			p.problem("query %d: MVM and native fragment results differ on %s", qi, frag.Table)
		}
		f.vm += vmDur
		f.native += natDur
		f.instrs += vb.fuel()
		shipped = vmOut
	}
	p.wireRoundTrip(shipped, frag.OutSchema, parent, qid, qi, f)
}

// wireRoundTrip times encoding rows into one tuple batch and decoding
// it back, and checks the round trip is lossless.
func (p *prober) wireRoundTrip(rows []types.Tuple, schema types.Schema, parent, qid int64, qi int, f *fragSums) {
	sp := p.rec.begin("wire.encode", parent, qid)
	payload := wire.EncodeBatch(rows)
	f.enc += sp.end()
	sp = p.rec.begin("wire.decode", parent, qid)
	back, err := wire.DecodeBatch(schema, payload)
	f.dec += sp.end()
	f.wireBytes += int64(len(payload))
	if err != nil {
		p.problem("query %d: decode batch: %v", qi, err)
		return
	}
	if !slices.Equal(newAnswer(back, true), newAnswer(rows, true)) {
		p.problem("query %d: wire batch round trip changed the rows", qi)
	}
}

func scanTable(tbl *storage.Table) ([]types.Tuple, int64, error) {
	it, err := tbl.Scan()
	if err != nil {
		return nil, 0, err
	}
	var rows []types.Tuple
	var bytes int64
	for {
		tup, _, err := it.Next()
		if err != nil {
			return nil, 0, err
		}
		if tup == nil {
			return rows, bytes, nil
		}
		bytes += int64(tup.WireSize())
		rows = append(rows, tup)
	}
}

// runFragment lowers the fragment onto an in-memory source with the
// given operator binder, ungoverned and without a semi-join key set,
// and returns its output and the time the tree took to run.
func runFragment(frag *core.Fragment, binder core.OpBinder, in []types.Tuple) ([]types.Tuple, time.Duration, error) {
	i := 0
	src := exec.NewSource(obs.OpScan, func() (types.Tuple, error) {
		if i == len(in) {
			return nil, nil
		}
		i++
		return in[i-1], nil
	}, 0)
	var out []types.Tuple
	tree, err := exec.LowerFragment(frag, binder, src, nil, func(t types.Tuple) error {
		out = append(out, t)
		return nil
	}, exec.Tuning{}, nil)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	err = exec.Run(context.Background(), tree, nil)
	return out, time.Since(t0), err
}

// vmBinder binds a fragment's operators to the exact class releases its
// code references name, run by the MVM as a DAP would.
type vmBinder struct {
	progs    map[string]*vm.Program // lower-case class name → program
	scalar   *vm.Machine
	machines []*vm.Machine
}

func (p *prober) vmBinder(refs []core.CodeRef) (*vmBinder, error) {
	b := &vmBinder{progs: map[string]*vm.Program{}, scalar: vm.New(vm.Limits{})}
	b.machines = append(b.machines, b.scalar)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ref := range refs {
		prog, ok := p.progs[ref.Checksum]
		if !ok {
			cls, found := p.cat.Repo().Resolve(ref.Name, ref.Checksum)
			if !found {
				return nil, fmt.Errorf("class %s@%s not in the repository", ref.Name, ref.Checksum)
			}
			var err error
			if prog, err = vm.Decode(cls.Blob); err != nil {
				return nil, fmt.Errorf("decode class %s: %w", ref.Name, err)
			}
			if err := vm.Verify(prog); err != nil {
				return nil, fmt.Errorf("verify class %s: %w", ref.Name, err)
			}
			p.progs[ref.Checksum] = prog
		}
		b.progs[strings.ToLower(ref.Name)] = prog
	}
	return b, nil
}

func (b *vmBinder) BindScalar(name string, ret types.Kind) (core.ScalarFn, error) {
	prog, ok := b.progs[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("class %s not shipped with the fragment", name)
	}
	s, err := ops.NewVMScalar(b.scalar, prog, ret)
	if err != nil {
		return nil, err
	}
	return s.Call, nil
}

func (b *vmBinder) BindAggregate(name string, ret types.Kind) (core.AggFn, error) {
	prog, ok := b.progs[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("class %s not shipped with the fragment", name)
	}
	m := vm.New(vm.Limits{})
	b.machines = append(b.machines, m)
	return ops.NewVMAggregate(m, prog, ret)
}

// fuel is the instructions every machine of the binder executed.
func (b *vmBinder) fuel() int64 {
	var n int64
	for _, m := range b.machines {
		n += m.FuelUsed
	}
	return n
}

// counters is a snapshot of the cluster's and the Go runtime's
// cumulative counters, for per-window deltas.
type counters struct {
	snap            map[string]int64
	hits, misses    int64
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func (b *bench) counters() counters {
	c := counters{snap: b.dep.cluster.Metrics().Snapshot()}
	for _, site := range []string{"site1", "site2", "site3"} {
		if h, m, err := b.dep.cluster.DAPCacheStats(site); err == nil {
			c.hits += h
			c.misses += m
		}
	}
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		rs[i].Name = n
	}
	metrics.Read(rs)
	if rs[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = rs[0].Value.Uint64()
	}
	if rs[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = rs[1].Value.Float64()
	}
	if rs[2].Value.Kind() == metrics.KindFloat64 {
		c.totalCPU = rs[2].Value.Float64()
	}
	return c
}

// traced runs half the window untraced, for the overhead baseline and
// for the counter- and runtime-based layer metrics, then half with the
// probes running beside every query.
func (b *bench) traced(outDir string) (result, error) {
	if err := b.setup(); err != nil {
		return result{}, err
	}
	defer b.dep.Close()
	half := b.window / 2

	c0 := b.counters()
	plain, plainElapsed := b.loop(half, nil)
	c1 := b.counters()
	retained := c1.snap[obs.MDapStreamsRetained]
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc
	tp := count(plain)

	rec := &recorder{t0: time.Now()}
	pr := newProber(b, rec)
	tracedSamples, tracedElapsed := b.loop(half, pr.probe)
	tt := count(tracedSamples)
	b.checkGovernors()
	b.printPerQuery(tt)

	plainQPS := float64(tp.completed) / plainElapsed.Seconds()
	tracedQPS := float64(tt.completed) / tracedElapsed.Seconds()
	fmt.Printf("untraced half: %d completed in %.3f s (%.3f q/s); traced half: %d completed in %.3f s (%.3f q/s)\n",
		tp.completed, plainElapsed.Seconds(), plainQPS, tt.completed, tracedElapsed.Seconds(), tracedQPS)

	for qi := range b.dep.mix {
		if e, ok := pr.est[qi]; ok {
			fmt.Printf("query %d: estimated CVDT %d B, measured %d B\n", qi, e[0], e[1])
		}
	}
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	probed := float64(max(pr.sums.queries, 1))
	for _, n := range names {
		fmt.Printf("self time %-16s %.4f ms/query\n", n, float64(self[n].Nanoseconds())/1e6/probed)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", b.w.name, b.seed))
	if err := rec.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %s\n", path)

	m := b.layerMetrics(pr, c0, c1, tp, live, retained)
	m["trace.overhead_frac"] = metric{1 - tracedQPS/plainQPS, "frac"}
	printMetrics(m)

	all := tally{attempted: tp.attempted + tt.attempted, failed: tp.failed + tt.failed, wrong: tp.wrong + tt.wrong}
	return b.finish(all, m), nil
}

// layerMetrics derives the per-layer metrics: probe measurements from
// the traced half, counter and runtime deltas from the untraced half.
func (b *bench) layerMetrics(pr *prober, c0, c1 counters, plain tally, live uint64, retained int64) map[string]metric {
	s := &pr.sums
	s.mu.Lock()
	defer s.mu.Unlock()
	probed := float64(max(s.queries, 1))
	done := float64(max(plain.completed, 1))
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delta := func(name string) float64 { return float64(c1.snap[name] - c0.snap[name]) }

	var highWater int64
	for _, g := range b.governors() {
		highWater = max(highWater, g.HighWater())
	}
	lookups := float64((c1.hits - c0.hits) + (c1.misses - c0.misses))
	hitRatio := 1.0
	if lookups > 0 {
		hitRatio = float64(c1.hits-c0.hits) / lookups
	}
	recoveries := delta(obs.MQpcRetries) + delta(obs.MQpcStreamResumes) + delta(obs.MQpcReplicaFailovers)
	waitCount := delta(obs.MQpcAdmissionWaitMS + ".count")

	return map[string]metric{
		"core.prepare_us":                    {float64(s.prepare.Nanoseconds()) / 1e3 / probed, "us"},
		"core.cvdt_est_ratio":                {s.estWorst, "ratio"},
		"storage.scan_ms_per_query":          {ms(s.scan) / probed, "ms"},
		"storage.cvda_bytes_per_query":       {float64(s.scanBytes) / probed, "B"},
		"vm.instrs_per_query":                {float64(s.vmInstrs) / probed, "count"},
		"vm.ns_per_instr":                    {ratio(float64(s.vmTime.Nanoseconds()), float64(s.vmInstrs)), "ns"},
		"ops.vm_native_ratio":                {ratio(float64(s.vmTime), float64(s.nativeTime)), "ratio"},
		"wire.encode_ns_per_byte":            {ratio(float64(s.enc.Nanoseconds()), float64(s.wireBytes)), "ns/B"},
		"wire.decode_ns_per_byte":            {ratio(float64(s.dec.Nanoseconds()), float64(s.wireBytes)), "ns/B"},
		"netsim.transmit_ms_per_query":       {ms(s.transmit) / probed, "ms"},
		"exec.qpc_op_self_ms_per_query":      {ms(s.opSelf) / probed, "ms"},
		"exec.spill_bytes_per_query":         {delta(obs.MExecSpillBytes) / done, "B"},
		"exec.mem_high_water_bytes":          {float64(highWater), "B"},
		"qpc.admission_wait_ms":              {ratio(delta(obs.MQpcAdmissionWaitMS+".sum"), waitCount), "ms"},
		"qpc.deploy_ms_per_query":            {s.deployMS / probed, "ms"},
		"qpc.recoveries_per_query":           {recoveries / done, "count"},
		"qpc.restart_wasted_bytes_per_query": {delta(obs.MQpcRestartWastedBytes) / done, "B"},
		"dap.code_cache_hit_ratio":           {hitRatio, "ratio"},
		"dap.streams_retained":               {float64(retained), "count"},
		"mocha.delivery_ms_per_query":        {s.delivery / probed, "ms"},
		"runtime.alloc_bytes_per_query":      {float64(c1.allocBytes-c0.allocBytes) / done, "B"},
		"runtime.gc_cpu_frac":                {ratio(c1.gcCPU-c0.gcCPU, c1.totalCPU-c0.totalCPU), "frac"},
		"runtime.live_heap_bytes":            {float64(live), "B"},
	}
}
