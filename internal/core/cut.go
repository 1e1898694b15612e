package core

import (
	"fmt"
	"sort"
	"strings"

	"mocha/internal/vm"
)

// This file implements whole-plan DAG-cut placement (DESIGN.md §15).
// Instead of deciding each operator's site in isolation by its VRF, the
// planner builds a typed operator/expression DAG for the whole query,
// enumerates the feasible cuts of that DAG, prices every cut with the
// section-4 cost model — network transfer of the shipped volume, MVM
// compute below the cut (verifier-derived static stamps when the class
// carries one), native compute above it — and keeps the cheapest one.
// The planner lowers each table's fragment straight from its chosen
// cut: everything below runs at the DAP as shipped MVM code; everything
// above runs at the QPC.
//
// Joins, aggregates over joins, cross-table expressions and the final
// result assembly are pinned above every cut, so no free choice ever
// spans two sites: the globally optimal cut decomposes into one
// independent cut per table, and each DAP of a multi-site plan gets its
// own split point (a degraded site collapses to scan-only while its
// healthy join partner keeps a deep cut).

// CutSearch selects how the planner picks the cut.
type CutSearch int

// Cut search modes.
const (
	// CutSearchRanked enumerates every feasible cut of the query DAG
	// and keeps the cheapest. This is the default.
	CutSearchRanked CutSearch = iota
	// CutSearchGreedy reproduces the legacy per-operator policy — each
	// operator pushed iff its own VRF < 1, decided bottom-up in
	// isolation — inside the cut framework. It is the differential
	// ladder's pre-cut oracle and the per-operator baseline of the
	// BENCH_cut experiment.
	CutSearchGreedy
)

func (s CutSearch) String() string {
	switch s {
	case CutSearchRanked:
		return "ranked"
	case CutSearchGreedy:
		return "greedy"
	}
	return "unknown"
}

// maxCutChoices bounds the ranked enumeration per table. Beyond
// 2^maxCutChoices combinations the search degrades to the greedy
// policy instead of stalling planning; realistic queries have a
// handful of choices.
const maxCutChoices = 14

// cutNode is one cuttable operator of the query DAG: a single-table
// predicate or a single-table call subexpression. Every node carries
// the leaf costing the ranker prices it with — argument and result
// bytes, selectivity, per-byte CPU cost — and, when the backing class
// carries one, the verifier's static cost stamp.
type cutNode struct {
	pred  bool // predicate node (else call node)
	table int

	key  string // canonical source-space expression text
	expr *PExpr // source-space (sub)expression
	kids []int  // call nodes nested inside this one (push this ⇒ push kids)

	argBytes int     // source bytes consumed per input tuple
	resBytes int     // result bytes per input tuple (calls)
	sf       float64 // selectivity (1 for calls)
	costPB   float64 // relative per-byte CPU cost

	static    vm.CostInfo // verifier stamp of the backing class
	hasStatic bool

	pinAbove bool // must run at the QPC (no shippable class)
	pinWhy   string
}

// vrf is a call node's volume reduction factor (Def. 4.1): result bytes
// over argument bytes, 1 when the call reads no source bytes.
func (n *cutNode) vrf() float64 {
	if n.argBytes <= 0 {
		return 1
	}
	return float64(n.resBytes) / float64(n.argBytes)
}

// mvmMS models running node n in the MVM at the DAP once per scanned
// row: from the verifier's static stamp when the class carries one,
// from the catalog's per-byte constant otherwise.
func (n *cutNode) mvmMS(m CostModel, rows int64) float64 {
	if n.hasStatic {
		return m.CompMSStatic(rows, int64(n.argBytes), n.static)
	}
	return m.CompMS(rows*int64(n.argBytes), n.costPB, true)
}

// aggCutNode models the whole-query aggregation when it hangs off a
// single table (the only shape that can move below a cut; aggregation
// over a join is pinned above).
type aggCutNode struct {
	table    int
	place    OpPlacement
	groups   int64
	keyBytes int
	resBytes int
	argBytes int
	pinAbove bool
	pinWhy   string
}

// queryDAG is the typed whole-query model the cut search ranks: one
// scan per table, the cuttable predicate/call nodes, the optional
// single-table aggregation, and the pinned QPC-side tail (join edges
// and multi-table expressions), which never moves but is recorded so
// the model covers the full plan shape.
type queryDAG struct {
	nodes []*cutNode
	byKey map[string]int // cutKey -> node index
	preds [][]int        // per table: predicate nodes, in query order
	calls [][]int        // per table: call nodes, post-order (kids first)
	agg   *aggCutNode    // whole-query aggregation, nil when absent
	joins int            // eq-join edges, always above every cut
	post  int            // multi-table predicates, always above
}

func cutKey(ti int, e *PExpr) string { return fmt.Sprintf("%d|%s", ti, e.String()) }

// pushedCall reports whether e is a call node of table ti that asg runs
// below the cut, and returns the node.
func (d *queryDAG) pushedCall(ti int, e *PExpr, asg *cutAssignment) (int, bool) {
	if e.Kind != ExprCall {
		return -1, false
	}
	idx, ok := d.byKey[cutKey(ti, e)]
	return idx, ok && asg.pushNode[idx]
}

// cutAssignment is one candidate cut of a single table: which of its
// nodes run below (at the DAP) and whether the aggregation does.
type cutAssignment struct {
	pushNode []bool // parallel to queryDAG.nodes
	pushAgg  bool
}

// tableCut is the chosen cut for one table, the only input the planner
// lowers the table's fragment from.
type tableCut struct {
	asg    cutAssignment
	Alts   int     // how many feasible cuts the ranker priced
	CostMS float64 // modeled cost of the chosen cut
	Point  string  // human-readable split point for EXPLAIN / plan XML
}

// buildDAG assembles the typed operator/expression DAG from the bound
// query. Call nodes are registered post-order (kids before parents),
// walking items before predicates, so node indexes are deterministic
// and a node's kids always precede it.
func (p *planner) buildDAG() *queryDAG {
	q := p.q
	d := &queryDAG{
		byKey: map[string]int{},
		preds: make([][]int, len(q.Tables)),
		calls: make([][]int, len(q.Tables)),
	}

	// addCalls registers the single-table call subtrees of an
	// expression and returns the maximal registered nodes within it —
	// the kid lists of enclosing nodes.
	var addCalls func(e *PExpr) []int
	addCalls = func(e *PExpr) []int {
		if e == nil {
			return nil
		}
		var kids []int
		for _, a := range e.Args {
			kids = append(kids, addCalls(a)...)
		}
		if e.Kind != ExprCall {
			return kids
		}
		ti := p.exprTable(e)
		if ti < 0 {
			// Cross-table or constant-only calls are pinned at the QPC.
			// Their single-table argument subtrees (already registered)
			// stay cuttable — that is the mid-expression split: the
			// inner AvgEnergy of a cross-site Diff can ship while Diff
			// itself assembles the two 8-byte results above the cut.
			return kids
		}
		key := cutKey(ti, e)
		if idx, ok := d.byKey[key]; ok {
			return []int{idx}
		}
		n := &cutNode{table: ti, key: key, expr: e, kids: kids, sf: 1}
		n.argBytes = exprArgBytes(e, p.q.GlobalSchema, p.tableStats(ti))
		n.resBytes = callResultBytes(e, p.opt.Cat.Ops(), n.argBytes)
		if def, ok := p.opt.Cat.Ops().Lookup(e.Func); ok {
			n.costPB = def.CPUCostPerByte
		}
		if cls, ok := p.opt.Cat.Repo().Get(e.Func); ok {
			if !cls.Cost.IsZero() {
				n.static, n.hasStatic = cls.Cost, true
			}
		} else {
			n.pinAbove = true
			n.pinWhy = "no shippable class"
		}
		idx := len(d.nodes)
		d.nodes = append(d.nodes, n)
		d.byKey[key] = idx
		d.calls[ti] = append(d.calls[ti], idx)
		return []int{idx}
	}

	for _, it := range q.Items {
		addCalls(it.Expr)
		if it.Agg != nil {
			for _, a := range it.Agg.Args {
				addCalls(a)
			}
		}
	}

	for _, pred := range q.Preds {
		switch {
		case pred.EqJoin:
			d.joins++
		case len(pred.Tables) == 1:
			ti := pred.Tables[0]
			kids := addCalls(pred.Expr)
			n := &cutNode{pred: true, table: ti, key: cutKey(ti, pred.Expr), expr: pred.Expr, kids: kids}
			n.sf = predicateSelectivity(pred.Expr, q.Tables[ti].Def.Name, p.opt.Cat)
			n.argBytes = exprArgBytes(pred.Expr, p.q.GlobalSchema, p.tableStats(ti))
			n.costPB = simplePredCostPerByte
			if calls := allCalls(pred.Expr); len(calls) > 0 {
				var sum float64
				for _, call := range calls {
					if def, ok := p.opt.Cat.Ops().Lookup(call.Func); ok {
						sum += def.CPUCostPerByte
					}
				}
				if sum > 0 {
					n.costPB = sum
				}
				if cls, ok := p.opt.Cat.Repo().Get(calls[0].Func); ok && !cls.Cost.IsZero() {
					n.static, n.hasStatic = cls.Cost, true
				}
			}
			idx := len(d.nodes)
			d.nodes = append(d.nodes, n)
			d.preds[ti] = append(d.preds[ti], idx)
		default:
			d.post++
			addCalls(pred.Expr) // single-table subtrees inside stay cuttable
		}
	}

	if q.HasAggregate {
		if len(q.Tables) != 1 {
			d.agg = &aggCutNode{table: -1, pinAbove: true, pinWhy: "aggregation over a join"}
		} else {
			var aggs []AggSpec
			for _, it := range q.Items {
				if it.Agg != nil {
					aggs = append(aggs, *it.Agg)
				}
			}
			var keyBytes int
			for _, g := range q.GroupBy {
				keyBytes += p.cols[g].avgBytes
			}
			place := aggregatePlacement(aggs, keyBytes, p.q.GlobalSchema, p.tableStats(0), p.opt.Model, p.opt.Cat.Ops())
			rows := p.tableStats(0).RowCount
			if rows <= 0 {
				rows = 1
			}
			g := p.opt.Model.DefaultGroups
			if g > rows {
				g = rows
			}
			var resBytes int
			for _, a := range aggs {
				var ab int
				for _, arg := range a.Args {
					ab += exprArgBytes(arg, p.q.GlobalSchema, p.tableStats(0))
				}
				if def, ok := p.opt.Cat.Ops().Lookup(a.Func); ok {
					resBytes += def.EstimateResultBytes(ab)
				} else if w := a.Ret.FixedWireSize(); w > 0 {
					resBytes += w
				}
			}
			d.agg = &aggCutNode{
				table: 0, place: place, groups: g,
				keyBytes: keyBytes, resBytes: resBytes, argBytes: place.ArgBytes,
			}
			// A pushed aggregation over a scattered table is complete
			// per shard only when every group lives in exactly one
			// shard, i.e. the partition key is a grouping column. Any
			// other grouping (or a global aggregate) would return one
			// partial row per shard, so the aggregation is pinned
			// above the cut to merge at the QPC.
			if pl := q.Tables[0].Def.Placement; pl != nil && len(pl.Parts) > 1 {
				keyExt := q.Tables[0].Offset + q.Tables[0].Def.Schema.ColumnIndex(pl.Key)
				disjoint := false
				for _, gb := range q.GroupBy {
					if gb == keyExt {
						disjoint = true
						break
					}
				}
				if !disjoint {
					d.agg.pinAbove = true
					d.agg.pinWhy = "partial groups span partitions"
				}
			}
		}
	}
	return d
}

// buildCut runs the cut search over the query DAG: one independent
// cut per table, each under that table's resolved strategy (forced
// strategies and degraded sites have exactly one feasible cut).
func (p *planner) buildCut() {
	p.dag = p.buildDAG()
	p.cuts = make([]tableCut, len(p.q.Tables))
	for ti := range p.q.Tables {
		p.cuts[ti] = p.cutTable(p.dag, ti)
	}
}

// cutTable picks table ti's cut. Pinning rules: degraded sites and
// forced data shipping admit only the scan-only cut; forced code
// shipping admits only the maximal feasible cut; nodes without a
// shippable class are pinned above; aggregation over a join is pinned
// above; a pushed aggregation requires every predicate and call of its
// table below the cut (the fragment groups filtered rows — nothing of
// the table survives for the QPC to evaluate).
func (p *planner) cutTable(d *queryDAG, ti int) tableCut {
	aggHere := d.agg != nil && d.agg.table == ti && !d.agg.pinAbove
	switch p.strategyFor(ti) {
	case StrategyDataShip:
		return p.finishCut(d, ti, cutAssignment{pushNode: make([]bool, len(d.nodes))}, 1)
	case StrategyCodeShip:
		asg := cutAssignment{pushNode: make([]bool, len(d.nodes))}
		for _, idx := range d.calls[ti] {
			n := d.nodes[idx]
			asg.pushNode[idx] = !n.pinAbove && kidsPushed(d, &asg, n)
		}
		allPreds := true
		for _, idx := range d.preds[ti] {
			n := d.nodes[idx]
			asg.pushNode[idx] = !n.pinAbove && kidsPushed(d, &asg, n)
			allPreds = allPreds && asg.pushNode[idx]
		}
		asg.pushAgg = aggHere && allPreds && allCallsPushed(d, ti, &asg)
		return p.finishCut(d, ti, asg, 1)
	}
	free := countFree(d, ti)
	if aggHere {
		free++
	}
	if p.opt.Search == CutSearchGreedy || free > maxCutChoices {
		return p.greedyCut(d, ti, aggHere)
	}
	return p.rankedCut(d, ti, aggHere)
}

func countFree(d *queryDAG, ti int) int {
	n := 0
	for _, idx := range append(append([]int{}, d.preds[ti]...), d.calls[ti]...) {
		if !d.nodes[idx].pinAbove {
			n++
		}
	}
	return n
}

func kidsPushed(d *queryDAG, asg *cutAssignment, n *cutNode) bool {
	for _, k := range n.kids {
		if !asg.pushNode[k] {
			return false
		}
	}
	return true
}

func allCallsPushed(d *queryDAG, ti int, asg *cutAssignment) bool {
	for _, idx := range d.calls[ti] {
		if !asg.pushNode[idx] {
			return false
		}
	}
	return true
}

// rankedCut enumerates every feasible cut of table ti and keeps the
// cheapest. Cuts are ranked lexicographically: estimated transfer time
// of the shipped volume (the CVDT term) first, modeled CPU — static
// stamps below the cut, native execution above — as the tie-breaker.
// The paper's testbed is network-bound (§4: a 10 Mbps link dwarfs
// operator compute), so volume decides and CPU only separates cuts
// that ship the same bytes; this also guarantees the ranked cut never
// ships more than the greedy per-operator baseline. Ties keep the
// first in enumeration order (fewest pushed operators), which makes
// the choice deterministic.
func (p *planner) rankedCut(d *queryDAG, ti int, aggHere bool) tableCut {
	var free []int
	for _, idx := range append(append([]int{}, d.preds[ti]...), d.calls[ti]...) {
		if !d.nodes[idx].pinAbove {
			free = append(free, idx)
		}
	}
	nchoice := len(free)
	if aggHere {
		nchoice++
	}
	var best cutAssignment
	var bestNet, bestCPU float64
	alts := 0
	for mask := 0; mask < 1<<nchoice; mask++ {
		asg := cutAssignment{pushNode: make([]bool, len(d.nodes))}
		for i, idx := range free {
			asg.pushNode[idx] = mask&(1<<i) != 0
		}
		if aggHere {
			asg.pushAgg = mask&(1<<len(free)) != 0
		}
		if !p.feasibleCut(d, ti, &asg) {
			continue
		}
		net, cpu := p.cutCost(d, ti, &asg)
		if alts == 0 || net < bestNet || (net == bestNet && cpu < bestCPU) {
			best, bestNet, bestCPU = asg, net, cpu
		}
		alts++
	}
	return p.finishCut(d, ti, best, alts)
}

// feasibleCut checks the monotonicity constraints of an assignment: a
// pushed node needs its nested calls below with it, and a pushed
// aggregation needs the whole table below the cut.
func (p *planner) feasibleCut(d *queryDAG, ti int, asg *cutAssignment) bool {
	for _, idx := range d.calls[ti] {
		if asg.pushNode[idx] && !kidsPushed(d, asg, d.nodes[idx]) {
			return false
		}
	}
	for _, idx := range d.preds[ti] {
		if asg.pushNode[idx] && !kidsPushed(d, asg, d.nodes[idx]) {
			return false
		}
	}
	if asg.pushAgg {
		for _, idx := range d.preds[ti] {
			if !asg.pushNode[idx] {
				return false
			}
		}
		if !allCallsPushed(d, ti, asg) {
			return false
		}
	}
	return true
}

// neededAbove computes what the QPC still needs from table ti under an
// assignment: the raw source columns referenced above the cut and the
// shipped call roots (maximal pushed call subtrees, each of which the
// fragment ships as one `_v<n>` column). The walk is top-down and stops
// at a pushed root; pushed predicates are skipped entirely.
func (p *planner) neededAbove(d *queryDAG, ti int, asg *cutAssignment) (raw map[int]bool, roots []int) {
	raw = map[int]bool{}
	rootSet := map[int]bool{}
	var scan func(e *PExpr)
	scan = func(e *PExpr) {
		if e == nil {
			return
		}
		if idx, ok := d.pushedCall(ti, e, asg); ok {
			rootSet[idx] = true
			return
		}
		if e.Kind == ExprCol && p.cols[e.Col].table == ti {
			raw[e.Col] = true
		}
		for _, a := range e.Args {
			scan(a)
		}
	}
	for _, it := range p.q.Items {
		scan(it.Expr)
		if it.Agg != nil && !asg.pushAgg {
			for _, a := range it.Agg.Args {
				scan(a)
			}
		}
	}
	for _, idx := range d.preds[ti] {
		if !asg.pushNode[idx] {
			scan(d.nodes[idx].expr)
		}
	}
	for _, pred := range p.q.Preds {
		switch {
		case pred.EqJoin:
			if p.cols[pred.LCol].table == ti {
				raw[pred.LCol] = true
			}
			if p.cols[pred.RCol].table == ti {
				raw[pred.RCol] = true
			}
		case len(pred.Tables) > 1:
			scan(pred.Expr)
		}
	}
	if !asg.pushAgg {
		for _, g := range p.q.GroupBy {
			if p.cols[g].table == ti {
				raw[g] = true
			}
		}
	}
	roots = make([]int, 0, len(rootSet))
	for idx := range rootSet {
		roots = append(roots, idx)
	}
	sort.Ints(roots)
	return raw, roots
}

// callClosure returns the shipped roots plus every call nested below
// them — each executes at the DAP once per scanned row.
func callClosure(d *queryDAG, roots []int) []int {
	seen := map[int]bool{}
	var visit func(int)
	visit = func(idx int) {
		if seen[idx] {
			return
		}
		seen[idx] = true
		for _, k := range d.nodes[idx].kids {
			visit(k)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	out := make([]int, 0, len(seen))
	for idx := range seen {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// pushedSF is the combined selectivity of the predicates asg runs
// below table ti's cut.
func pushedSF(d *queryDAG, ti int, asg *cutAssignment) float64 {
	sf := 1.0
	for _, idx := range d.preds[ti] {
		if asg.pushNode[idx] {
			sf *= d.nodes[idx].sf
		}
	}
	return sf
}

// shippedVolume models what table ti ships to the QPC under asg when
// its aggregation stays above the cut: of rows scanned, the rows that
// survive the pushed predicates, and their bytes — each row carries the
// raw columns and shipped call results the QPC still needs (the call
// roots, also returned). The ranker prices this volume and the plan's
// CVDT estimate reports it.
func (p *planner) shippedVolume(d *queryDAG, ti int, asg *cutAssignment, rows int64) (shippedRows, bytes float64, roots []int) {
	raw, roots := p.neededAbove(d, ti, asg)
	var rowBytes int64
	for col := range raw {
		rowBytes += int64(p.cols[col].avgBytes)
	}
	for _, idx := range roots {
		rowBytes += int64(d.nodes[idx].resBytes)
	}
	shippedRows = pushedSF(d, ti, asg) * float64(rows)
	return shippedRows, shippedRows * float64(rowBytes), roots
}

// cutCost prices one feasible cut and returns its two rank components:
// net is the CVDT transfer time of everything shipped above the cut;
// cpu is the modeled compute — MVM below the cut (verifier static
// stamps when the class carries one, the catalog's per-byte constant
// otherwise), native QPC execution for the table's operators left
// above.
func (p *planner) cutCost(d *queryDAG, ti int, asg *cutAssignment) (net, cpu float64) {
	rows := p.tableStats(ti).RowCount
	if rows <= 0 {
		rows = 1
	}
	model := p.opt.Model

	// Below-cut predicates run in the MVM over every scanned row.
	for _, idx := range d.preds[ti] {
		if asg.pushNode[idx] {
			cpu += d.nodes[idx].mvmMS(model, rows)
		}
	}

	if asg.pushAgg && d.agg != nil {
		// The fragment collapses the table to its group rows: volume is
		// G×(key+result); the aggregation itself runs in the MVM.
		a := d.agg
		for _, idx := range d.calls[ti] {
			cpu += d.nodes[idx].mvmMS(model, rows)
		}
		cpu += model.CompMS(rows*int64(a.argBytes), a.place.CompCostPerByte, true)
		net = model.NetworkMS(a.groups * int64(a.keyBytes+a.resBytes))
		return net, cpu
	}

	shippedRows, bytes, roots := p.shippedVolume(d, ti, asg, rows)
	net = model.NetworkMS(int64(bytes))

	// Below-cut calls: the closure of the shipped roots executes in the
	// MVM per scanned row. Calls inside pushed predicates are already
	// priced through the predicate's cost above.
	for _, idx := range callClosure(d, roots) {
		cpu += d.nodes[idx].mvmMS(model, rows)
	}

	// Above-cut: the table's remaining calls and predicates run
	// natively at the QPC over the shipped rows.
	for _, idx := range append(append([]int{}, d.calls[ti]...), d.preds[ti]...) {
		n := d.nodes[idx]
		if !asg.pushNode[idx] {
			cpu += model.CompMS(int64(shippedRows)*int64(n.argBytes), n.costPB, false)
		}
	}
	if d.agg != nil && d.agg.table == ti && !asg.pushAgg {
		cpu += model.CompMS(int64(shippedRows)*int64(d.agg.argBytes), d.agg.place.CompCostPerByte, false)
	}
	return net, cpu
}

// greedyCut reproduces the legacy per-operator policy: aggregation by
// its VRF, calls bottom-up by their own subtree VRF, then predicates
// by VRF over the row the QPC would otherwise need. Used for
// CutSearchGreedy and as the fallback when the ranked search space
// exceeds maxCutChoices.
func (p *planner) greedyCut(d *queryDAG, ti int, aggHere bool) tableCut {
	asg := cutAssignment{pushNode: make([]bool, len(d.nodes))}
	if aggHere {
		asg.pushAgg = d.agg.place.VRF < 1
	}
	// Calls bottom-up: a pushed parent carries its subtree below.
	for _, idx := range d.calls[ti] {
		n := d.nodes[idx]
		if n.pinAbove {
			continue
		}
		if n.vrf() < 1 {
			asg.pushNode[idx] = true
		}
	}
	for i := len(d.calls[ti]) - 1; i >= 0; i-- {
		idx := d.calls[ti][i]
		if asg.pushNode[idx] {
			pushSubtree(d, &asg, idx)
		}
	}
	// Predicates: VRF over the row shipped under the call/agg decisions
	// (predicates themselves assumed below, as the legacy planner saw
	// them before any was kept).
	probe := asg
	probe.pushNode = append([]bool(nil), asg.pushNode...)
	for _, idx := range d.preds[ti] {
		probe.pushNode[idx] = true
	}
	raw, roots := p.neededAbove(d, ti, &probe)
	var outBytes int
	for col := range raw {
		outBytes += p.cols[col].avgBytes
	}
	for _, idx := range roots {
		outBytes += d.nodes[idx].resBytes
	}
	for _, idx := range d.preds[ti] {
		n := d.nodes[idx]
		if n.pinAbove || !kidsPushable(d, n) {
			continue
		}
		var argOnly int
		for _, col := range n.expr.Columns() {
			if !raw[col] && p.cols[col].table == ti {
				argOnly += p.cols[col].avgBytes
			}
		}
		place := predicatePlacement(n.expr, p.q.Tables[ti].Def.Name, outBytes, argOnly, p.opt.Cat)
		if place.VRF < 1 {
			asg.pushNode[idx] = true
			pushSubtree(d, &asg, idx)
		}
	}
	if asg.pushAgg && !p.feasibleCut(d, ti, &asg) {
		// The legacy coupling: a pushed aggregation with anything of
		// the table left above is unplannable; keep the aggregation at
		// the QPC instead.
		asg.pushAgg = false
	}
	return p.finishCut(d, ti, asg, 1)
}

func pushSubtree(d *queryDAG, asg *cutAssignment, idx int) {
	for _, k := range d.nodes[idx].kids {
		asg.pushNode[k] = true
		pushSubtree(d, asg, k)
	}
}

func kidsPushable(d *queryDAG, n *cutNode) bool {
	for _, k := range n.kids {
		kn := d.nodes[k]
		if kn.pinAbove || !kidsPushable(d, kn) {
			return false
		}
	}
	return true
}

// finishCut records the chosen assignment with its modeled cost and
// the EXPLAIN split point.
func (p *planner) finishCut(d *queryDAG, ti int, asg cutAssignment, alts int) tableCut {
	net, cpu := p.cutCost(d, ti, &asg)
	_, roots := p.neededAbove(d, ti, &asg)
	return tableCut{asg: asg, Alts: alts, CostMS: net + cpu, Point: p.cutPoint(d, ti, &asg, roots)}
}

// cutPoint renders the split point: the operators below the cut in
// deterministic order, or scan-only when the DAP only extracts
// attributes. Byte-deterministic (names only, no floats) so EXPLAIN
// goldens can pin it.
func (p *planner) cutPoint(d *queryDAG, ti int, asg *cutAssignment, roots []int) string {
	var below []string
	for _, idx := range d.preds[ti] {
		if asg.pushNode[idx] {
			below = append(below, "pred "+nodeLabel(d.nodes[idx]))
		}
	}
	for _, idx := range roots {
		below = append(below, "call "+d.nodes[idx].expr.Func)
	}
	if asg.pushAgg && d.agg != nil {
		below = append(below, "agg "+d.agg.place.Func)
	}
	if len(below) == 0 {
		return "scan-only"
	}
	return "below=[" + strings.Join(below, ", ") + "]"
}

func nodeLabel(n *cutNode) string {
	if !n.pred {
		return n.expr.Func
	}
	if c := firstCall(n.expr); c != nil {
		return c.Func
	}
	if n.expr.Kind == ExprBinop {
		return "cmp " + n.expr.Op
	}
	return "expr"
}
