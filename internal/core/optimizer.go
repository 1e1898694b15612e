package core

import (
	"fmt"
	"sort"
	"strings"

	"mocha/internal/catalog"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// Strategy selects the operator-placement policy. The evaluation of the
// paper compares forced code shipping against forced data shipping and
// shows the VRF-based automatic policy always matches the winner.
type Strategy int

// Placement strategies.
const (
	// StrategyAuto places each operator by its VRF: data-reducing
	// operators go to the DAPs, data-inflating ones stay at the QPC.
	StrategyAuto Strategy = iota
	// StrategyCodeShip forces every single-table operator to the DAPs.
	StrategyCodeShip
	// StrategyDataShip forces every operator to the QPC; DAPs only
	// extract attributes (the behaviour of gateway/wrapper middleware).
	StrategyDataShip
)

func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyCodeShip:
		return "code-shipping"
	case StrategyDataShip:
		return "data-shipping"
	}
	return "unknown"
}

// HealthOracle lets the optimizer see the coordinator's live view of
// site health. A degraded site (circuit breaker open: its link is flaky
// or shipped code keeps failing there) is planned under data shipping
// regardless of VRF — the DAP only extracts attributes, so nothing
// needs deploying or resuming at the sick site beyond the raw scan.
type HealthOracle interface {
	Degraded(site string) bool
}

// Optimizer builds physical plans from bound queries.
type Optimizer struct {
	Cat      *catalog.Catalog
	Strategy Strategy
	Model    CostModel
	// Search selects the cut-search mode: ranked whole-plan DAG cuts
	// (the default) or the legacy greedy per-operator policy.
	Search CutSearch
	// Health, when set, demotes degraded sites to data shipping.
	Health HealthOracle
}

// NewOptimizer returns an optimizer with the default cost model.
func NewOptimizer(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{Cat: cat, Model: DefaultCostModel()}
}

// colInfo describes one source column of the query's global column
// space (every bound table's columns, in table order).
type colInfo struct {
	table    int
	name     string
	kind     types.Kind
	avgBytes int
}

type planner struct {
	opt  *Optimizer
	q    *BoundQuery
	cols []colInfo

	// dag and cuts are the whole-plan placement decision (DESIGN.md
	// §15): the query DAG and the chosen cut of each table. Fragments
	// are lowered straight from them.
	dag  *queryDAG
	cuts []tableCut
}

// Plan builds the physical plan for a bound query.
func (o *Optimizer) Plan(q *BoundQuery) (*Plan, error) {
	p := newPlanner(o, q)
	p.buildCut()
	return p.build()
}

func newPlanner(o *Optimizer, q *BoundQuery) *planner {
	p := &planner{opt: o, q: q}
	for ti, bt := range q.Tables {
		for _, col := range bt.Def.Schema.Columns {
			p.cols = append(p.cols, colInfo{
				table:    ti,
				name:     col.Name,
				kind:     col.Kind,
				avgBytes: colAvgBytes(col, bt.Def.Stats),
			})
		}
	}
	return p
}

func (p *planner) tableStats(ti int) catalog.TableStats { return p.q.Tables[ti].Def.Stats }

// siteDegraded reports whether table ti's site is degraded per the
// health oracle. Partitioned tables are never degraded at plan time:
// a sick replica is handled by execution-time failover to a sibling,
// not by re-planning the whole table under data shipping.
func (p *planner) siteDegraded(ti int) bool {
	if p.q.Tables[ti].Def.Placement != nil {
		return false
	}
	return p.opt.Health != nil && p.opt.Health.Degraded(p.q.Tables[ti].Def.Site)
}

// strategyFor resolves the placement strategy for table ti: the global
// strategy, demoted to data shipping when the site is degraded.
func (p *planner) strategyFor(ti int) Strategy {
	if p.siteDegraded(ti) {
		return StrategyDataShip
	}
	return p.opt.Strategy
}

// exprTable returns the single table an expression touches, or -1 when it
// touches zero or several.
func (p *planner) exprTable(e *PExpr) int {
	t := -2
	for _, c := range e.Columns() {
		ct := p.cols[c].table
		if t == -2 {
			t = ct
		} else if t != ct {
			return -1
		}
	}
	if t == -2 {
		return -1
	}
	return t
}

// pushedAgg reports whether the cut runs the whole-query aggregation
// at the DAP (only ever true for a single-table query).
func (p *planner) pushedAgg() bool { return p.cuts[0].asg.pushAgg }

// abovePreds returns the WHERE conjuncts evaluated at the QPC that can
// carry calls, in emission order: single-table predicates left above
// their table's cut, then cross-table predicates.
func (p *planner) abovePreds() []*PExpr {
	var single, multi []*PExpr
	for _, pred := range p.q.Preds {
		switch {
		case pred.EqJoin:
		case len(pred.Tables) == 1:
			if !p.pushedPred(pred.Tables[0], pred.Expr) {
				single = append(single, pred.Expr)
			}
		default:
			multi = append(multi, pred.Expr)
		}
	}
	return append(single, multi...)
}

// pushedPred reports whether table ti's cut runs the single-table
// predicate e at the DAP.
func (p *planner) pushedPred(ti int, e *PExpr) bool {
	for _, idx := range p.dag.preds[ti] {
		if p.dag.nodes[idx].expr == e {
			return p.cuts[ti].asg.pushNode[idx]
		}
	}
	return false
}

// shippedRoot reports whether e is a call its table's cut runs below,
// and returns its DAG node.
func (p *planner) shippedRoot(e *PExpr) (int, bool) {
	if e.Kind != ExprCall {
		return -1, false
	}
	ti := p.exprTable(e)
	if ti < 0 {
		return -1, false
	}
	return p.dag.pushedCall(ti, e, &p.cuts[ti].asg)
}

// virtualNumbers numbers the shipped calls, whose results travel as
// `_v<n>` columns. Numbers follow the order the QPC-side expressions
// (items, then abovePreds) first reach each pushed call; the pushed
// calls nested inside a root are numbered before it, so a root over a
// pushed subcall is not `_v0` even though only roots become columns.
func (p *planner) virtualNumbers() map[int]int {
	num := map[int]int{}
	var number func(idx int)
	number = func(idx int) {
		if _, ok := num[idx]; ok {
			return
		}
		for _, k := range p.dag.nodes[idx].kids {
			number(k)
		}
		num[idx] = len(num)
	}
	var walk func(e *PExpr)
	walk = func(e *PExpr) {
		if e == nil {
			return
		}
		if idx, ok := p.shippedRoot(e); ok {
			number(idx)
			return
		}
		for _, a := range e.Args {
			walk(a)
		}
	}
	for _, it := range p.q.Items {
		walk(it.Expr)
		if it.Agg != nil && !p.pushedAgg() {
			for _, a := range it.Agg.Args {
				walk(a)
			}
		}
	}
	for _, e := range p.abovePreds() {
		walk(e)
	}
	return num
}

// combinedCols locates what the QPC reads in the combined (joined)
// schema: source columns shipped raw, and shipped call roots by DAG
// node.
type combinedCols struct {
	src  map[int]int
	root map[int]int
}

// lift rewrites a QPC-side expression over the combined schema. The
// walk is top-down and stops at a shipped call root, which becomes a
// reference to its `_v` column — the same walk neededAbove does.
func (p *planner) lift(e *PExpr, at *combinedCols) (*PExpr, error) {
	if idx, ok := p.shippedRoot(e); ok {
		ci, ok := at.root[idx]
		if !ok {
			return nil, fmt.Errorf("core: internal: call %s not shipped", e)
		}
		return NewCol(ci, e.Ret), nil
	}
	if e.Kind == ExprCol {
		ci, ok := at.src[e.Col]
		if !ok {
			return nil, fmt.Errorf("core: column %s not available at QPC", p.cols[e.Col].name)
		}
		return NewCol(ci, e.Ret), nil
	}
	c := *e
	if len(e.Args) > 0 {
		c.Args = make([]*PExpr, len(e.Args))
		for i, a := range e.Args {
			la, err := p.lift(a, at)
			if err != nil {
				return nil, err
			}
			c.Args[i] = la
		}
	}
	return &c, nil
}

// build lowers the chosen cut into the physical plan: one fragment per
// table in join order, then the QPC-side joins, filters, aggregation
// and projections over the combined schema.
func (p *planner) build() (*Plan, error) {
	q := p.q
	var joinPreds []BoundPred
	for _, pred := range q.Preds {
		if pred.EqJoin {
			joinPreds = append(joinPreds, pred)
		}
	}
	// Equality predicates not consumed as join steps (composite keys,
	// redundant equalities) become ordinary QPC filters.
	order, steps, leftover, err := p.orderJoins(joinPreds)
	if err != nil {
		return nil, err
	}
	plan := &Plan{SQL: q.SQL, Limit: q.Limit}
	at := &combinedCols{src: map[int]int{}, root: map[int]int{}}
	vnum := p.virtualNumbers()
	fragOfTable := make([]int, len(q.Tables))
	semiJoin := p.wantSemiJoin(order, joinPreds)
	for fi, ti := range order {
		frag, err := p.buildFragment(ti, semiJoin, joinPreds, vnum, at, plan.CombinedSchema.Arity())
		if err != nil {
			return nil, err
		}
		fragOfTable[ti] = fi
		plan.CombinedSchema.Columns = append(plan.CombinedSchema.Columns, frag.OutSchema.Columns...)
		plan.Fragments = append(plan.Fragments, frag)
	}

	// Join steps: rewrite eq columns into combined/right-fragment space.
	for _, st := range steps {
		right := fragOfTable[st.rightTable]
		lc, ok := at.src[st.leftCol]
		if !ok {
			return nil, fmt.Errorf("core: join column %d not shipped", st.leftCol)
		}
		rcCombined, ok := at.src[st.rightCol]
		if !ok {
			return nil, fmt.Errorf("core: join column %d not shipped", st.rightCol)
		}
		// Right column is relative to the right fragment's output.
		rbase := 0
		for i := 0; i < right; i++ {
			rbase += plan.Fragments[i].OutSchema.Arity()
		}
		plan.Joins = append(plan.Joins, JoinStep{
			RightFrag: right,
			LeftCol:   lc,
			RightCol:  rcCombined - rbase,
		})
	}

	// QPC-side predicates.
	above := p.abovePreds()
	for _, pred := range leftover {
		above = append(above, pred.Expr)
	}
	for _, e := range above {
		le, err := p.lift(e, at)
		if err != nil {
			return nil, err
		}
		plan.Predicates = append(plan.Predicates, le)
	}

	// QPC-side aggregation.
	aggAtQPC := q.HasAggregate && !p.pushedAgg()
	projInput := plan.CombinedSchema
	if aggAtQPC {
		for _, g := range q.GroupBy {
			ci, ok := at.src[g]
			if !ok {
				return nil, fmt.Errorf("core: GROUP BY column not shipped")
			}
			plan.GroupBy = append(plan.GroupBy, ci)
		}
		for _, it := range q.Items {
			if it.Agg == nil {
				continue
			}
			ra := *it.Agg
			ra.Args = make([]*PExpr, len(it.Agg.Args))
			for j, arg := range it.Agg.Args {
				e, err := p.lift(arg, at)
				if err != nil {
					return nil, err
				}
				ra.Args[j] = e
			}
			plan.Aggregates = append(plan.Aggregates, ra)
		}
		// Aggregation output schema: group columns then aggregates.
		projInput = types.Schema{}
		for _, g := range plan.GroupBy {
			projInput.Columns = append(projInput.Columns, plan.CombinedSchema.Columns[g])
		}
		for _, a := range plan.Aggregates {
			projInput.Columns = append(projInput.Columns, types.Column{Name: a.Name, Kind: a.Ret})
		}
	}

	// Final projections and result schema.
	for _, it := range q.Items {
		var out Output
		switch {
		case it.Agg != nil && aggAtQPC:
			idx := projInput.ColumnIndex(it.Agg.Name)
			if idx < 0 {
				return nil, fmt.Errorf("core: aggregate output %q lost", it.Name)
			}
			out = Output{Name: it.Name, Expr: NewCol(idx, it.Agg.Ret)}
		case it.Agg != nil:
			// Aggregation pushed: the DAP emits it as a column.
			ci := projInput.ColumnIndex(it.Name)
			if ci < 0 {
				return nil, fmt.Errorf("core: pushed aggregate %q missing from fragment output", it.Name)
			}
			out = Output{Name: it.Name, Expr: NewCol(ci, it.Agg.Ret)}
		case aggAtQPC:
			// Input is the aggregated schema: group columns by name.
			if it.Expr.Kind != ExprCol {
				return nil, fmt.Errorf("core: non-column output %q in aggregate query", it.Name)
			}
			ci := projInput.ColumnIndex(p.cols[it.Expr.Col].name)
			if ci < 0 {
				return nil, fmt.Errorf("core: group column %q lost", it.Name)
			}
			out = Output{Name: it.Name, Expr: NewCol(ci, it.Expr.Ret)}
		default:
			e, err := p.lift(it.Expr, at)
			if err != nil {
				return nil, err
			}
			out = Output{Name: it.Name, Expr: e}
		}
		plan.Projections = append(plan.Projections, out)
		plan.ResultSchema.Columns = append(plan.ResultSchema.Columns, types.Column{Name: it.Name, Kind: out.Expr.Ret})
	}

	// ORDER BY over the result schema.
	for _, key := range q.OrderBy {
		idx := plan.ResultSchema.ColumnIndex(key.Column)
		if idx < 0 {
			return nil, fmt.Errorf("core: ORDER BY column %q is not an output", key.Column)
		}
		plan.OrderBy = append(plan.OrderBy, OrderSpec{Col: idx, Desc: key.Desc})
	}

	// LIMIT pushdown: with a single fragment, no QPC-side filtering,
	// aggregation or ordering, the DAP can stop producing early.
	if plan.Limit > 0 && len(plan.Fragments) == 1 && len(plan.Joins) == 0 &&
		len(plan.Predicates) == 0 && len(plan.Aggregates) == 0 &&
		len(plan.Fragments[0].Aggregates) == 0 && len(plan.OrderBy) == 0 {
		plan.Fragments[0].Limit = plan.Limit
	}

	p.estimate(plan, order)
	return plan, nil
}

// buildFragment lowers table ti's cut into its fragment: the pushed
// predicates ordered by rank, then either the pushed aggregation or the
// raw columns the QPC needs followed by one `_v<n>` column per shipped
// call root. It records where each output lands in the combined schema,
// whose first base columns belong to earlier fragments.
func (p *planner) buildFragment(ti int, semiJoin bool, joinPreds []BoundPred, vnum map[int]int, at *combinedCols, base int) (*Fragment, error) {
	bt := p.q.Tables[ti]
	d, tc := p.dag, &p.cuts[ti]
	frag := &Fragment{Site: bt.Def.Site, Table: bt.Def.Name, SemiJoinCol: -1,
		Degraded: p.siteDegraded(ti), CutPoint: tc.Point, CutAlts: tc.Alts}

	raw, roots := p.neededAbove(d, ti, &tc.asg)
	var preds []int
	for _, idx := range d.preds[ti] {
		if tc.asg.pushNode[idx] {
			preds = append(preds, idx)
		}
	}

	// Columns read at the DAP: the raw columns the QPC needs plus the
	// inputs of the shipped calls, pushed predicates and aggregation.
	read := map[int]bool{}
	for c := range raw {
		read[c] = true
	}
	readExpr := func(e *PExpr) {
		for _, c := range e.Columns() {
			read[c] = true
		}
	}
	for _, idx := range append(append([]int{}, roots...), preds...) {
		readExpr(d.nodes[idx].expr)
	}
	if tc.asg.pushAgg {
		for _, g := range p.q.GroupBy {
			read[g] = true
		}
		for _, it := range p.q.Items {
			if it.Agg != nil {
				for _, a := range it.Agg.Args {
					readExpr(a)
				}
			}
		}
	}
	var readCols []int
	for c := range read {
		readCols = append(readCols, c)
	}
	sort.Ints(readCols)
	if len(readCols) == 0 {
		// A fragment must extract at least one column to carry row
		// cardinality.
		readCols = []int{bt.Offset}
	}

	local := map[int]int{}
	for pos, c := range readCols {
		local[c] = pos
		frag.Cols = append(frag.Cols, c-bt.Offset)
		frag.InSchema.Columns = append(frag.InSchema.Columns, types.Column{Name: p.cols[c].name, Kind: p.cols[c].kind})
	}
	localize := func(e *PExpr) *PExpr {
		return e.Rewrite(func(x *PExpr) *PExpr {
			if x.Kind == ExprCol {
				return NewCol(local[x.Col], x.Ret)
			}
			return x
		})
	}

	// Predicates, ordered by rank(p) = (SF-1)/cost ascending.
	rowBytes := int64(p.tableStats(ti).AvgTupleBytes())
	rank := func(idx int) float64 {
		n := d.nodes[idx]
		return OpPlacement{SF: n.sf, CompCostPerByte: n.costPB}.Rank(p.opt.Model, rowBytes)
	}
	sort.SliceStable(preds, func(i, j int) bool { return rank(preds[i]) < rank(preds[j]) })
	for _, idx := range preds {
		frag.Predicates = append(frag.Predicates, localize(d.nodes[idx].expr))
	}

	// Semi-join filtering column (the join key, if participating).
	if semiJoin {
		for _, jp := range joinPreds {
			for _, jc := range []int{jp.LCol, jp.RCol} {
				if p.cols[jc].table == ti {
					if pos, ok := local[jc]; ok {
						frag.SemiJoinCol = pos
					}
				}
			}
		}
	}

	emit := func(name string, e *PExpr) {
		frag.OutSchema.Columns = append(frag.OutSchema.Columns, types.Column{Name: name, Kind: e.Ret})
		frag.Projections = append(frag.Projections, Output{Name: name, Expr: localize(e)})
	}
	if tc.asg.pushAgg {
		for _, g := range p.q.GroupBy {
			at.src[g] = base + len(frag.OutSchema.Columns)
			frag.GroupBy = append(frag.GroupBy, local[g])
			frag.OutSchema.Columns = append(frag.OutSchema.Columns, types.Column{Name: p.cols[g].name, Kind: p.cols[g].kind})
		}
		// Aggregate outputs are addressed by name.
		for _, it := range p.q.Items {
			if it.Agg == nil {
				continue
			}
			agg := *it.Agg
			agg.Name = it.Name
			agg.Args = make([]*PExpr, len(it.Agg.Args))
			for j, a := range it.Agg.Args {
				agg.Args[j] = localize(a)
			}
			frag.Aggregates = append(frag.Aggregates, agg)
			frag.OutSchema.Columns = append(frag.OutSchema.Columns, types.Column{Name: agg.Name, Kind: agg.Ret})
		}
	} else {
		rawCols := make([]int, 0, len(raw))
		for c := range raw {
			rawCols = append(rawCols, c)
		}
		sort.Ints(rawCols)
		for _, c := range rawCols {
			at.src[c] = base + len(frag.OutSchema.Columns)
			emit(p.cols[c].name, NewCol(c, p.cols[c].kind))
		}
		sort.Slice(roots, func(i, j int) bool { return vnum[roots[i]] < vnum[roots[j]] })
		for _, idx := range roots {
			at.root[idx] = base + len(frag.OutSchema.Columns)
			emit(fmt.Sprintf("_v%d", vnum[idx]), d.nodes[idx].expr)
		}
	}

	// Code-shipping manifest: every operator the fragment evaluates.
	if err := p.attachCode(frag); err != nil {
		return nil, err
	}

	// Scatter targets for partitioned tables: prune by the single-table
	// predicates — wherever each runs, it constrains the partition key
	// the same way — then record one target per surviving partition.
	if pl := bt.Def.Placement; pl != nil {
		var all []*PExpr
		for _, idx := range d.preds[ti] {
			all = append(all, d.nodes[idx].expr)
		}
		keyExt := bt.Offset + bt.Def.Schema.ColumnIndex(pl.Key)
		keep := PrunePartitions(pl, keyExt, all)
		frag.PartsTotal = len(pl.Parts)
		frag.PartKey = pl.Key
		for _, pi := range keep {
			part := pl.Parts[pi]
			frag.Parts = append(frag.Parts, PartTarget{
				ID: pi, Table: part.Table, Site: part.Replicas[0],
				Replicas: append([]string(nil), part.Replicas...),
			})
		}
		if len(frag.Parts) > 0 {
			frag.Site = frag.Parts[0].Site
		}
	}
	return frag, nil
}

// attachCode lists the classes the fragment needs from the repository.
func (p *planner) attachCode(frag *Fragment) error {
	seen := map[string]bool{}
	addExpr := func(e *PExpr) {
		e.Walk(func(x *PExpr) {
			if x.Kind == ExprCall {
				seen[x.Func] = true
			}
		})
	}
	for _, e := range frag.Predicates {
		addExpr(e)
	}
	for _, o := range frag.Projections {
		addExpr(o.Expr)
	}
	for _, a := range frag.Aggregates {
		seen[a.Func] = true
		for _, arg := range a.Args {
			addExpr(arg)
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cls, ok := p.opt.Cat.Repo().Get(n)
		if !ok {
			return fmt.Errorf("core: operator %s has no class in the code repository", n)
		}
		ref := CodeRef{
			Name: cls.Name, Version: cls.Version, Checksum: cls.Checksum,
			Caps: strings.Join(cls.Caps, ","),
		}
		if !cls.Cost.IsZero() {
			ref.Cost = cls.Cost.String()
		}
		frag.Code = append(frag.Code, ref)
	}
	return nil
}

type joinStepInfo struct {
	rightTable        int
	leftCol, rightCol int // global column space
}

// orderJoins picks a left-deep join order (System R style over estimated
// stream volumes) and returns the table order, the join steps, and any
// equality predicates not consumed as join steps.
func (p *planner) orderJoins(joinPreds []BoundPred) ([]int, []joinStepInfo, []BoundPred, error) {
	n := len(p.q.Tables)
	if n == 1 {
		return []int{0}, nil, joinPreds, nil
	}
	// Order ascending by estimated shipped volume so the build sides of
	// the hash joins are small.
	vol := make([]float64, n)
	for ti := range p.q.Tables {
		vol[ti] = p.fragVolumeEstimate(ti)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return vol[order[a]] < vol[order[b]] })

	// Left-deep: repeatedly join the smallest remaining stream that an
	// unused equality connects to the tables joined so far. The smallest
	// remaining stream overall may not be connected yet (a degraded
	// site's inflated stream can reorder a chain join).
	joined := map[int]bool{order[0]: true}
	seq := []int{order[0]}
	var steps []joinStepInfo
	used := make([]bool, len(joinPreds))
	for len(seq) < n {
		found := false
		for _, ti := range order {
			if joined[ti] {
				continue
			}
			for pi, jp := range joinPreds {
				if used[pi] {
					continue
				}
				var lc, rc int
				switch {
				case joined[jp.LTab] && jp.RTab == ti:
					lc, rc = jp.LCol, jp.RCol
				case joined[jp.RTab] && jp.LTab == ti:
					lc, rc = jp.RCol, jp.LCol
				default:
					continue
				}
				steps = append(steps, joinStepInfo{rightTable: ti, leftCol: lc, rightCol: rc})
				used[pi] = true
				found = true
				break
			}
			if found {
				joined[ti] = true
				seq = append(seq, ti)
				break
			}
		}
		if !found {
			for _, ti := range order {
				if !joined[ti] {
					return nil, nil, nil, fmt.Errorf("core: no join predicate connects table %s (cross products unsupported)", p.q.Tables[ti].Def.Name)
				}
			}
		}
	}
	var leftover []BoundPred
	for pi, jp := range joinPreds {
		if !used[pi] {
			leftover = append(leftover, jp)
		}
	}
	return seq, steps, leftover, nil
}

// fragVolumeEstimate predicts the bytes table ti's fragment ships under
// its chosen cut, from the same volume model the ranker prices.
func (p *planner) fragVolumeEstimate(ti int) float64 {
	_, bytes, _ := p.shippedVolume(p.dag, ti, &p.cuts[ti].asg, p.tableStats(ti).RowCount)
	return bytes
}

// wantSemiJoin decides whether join fragments filter by key sets first.
// The 2-way semi-join protocol (section 5.4) coordinates exactly two
// sites; larger joins fall back to plain hash joins at the QPC.
func (p *planner) wantSemiJoin(order []int, joinPreds []BoundPred) bool {
	if len(order) != 2 || len(joinPreds) == 0 {
		return false
	}
	// The semi-join protocol runs two coordinated phases per site and its
	// key streams cannot be restarted past the replay window; keep
	// degraded sites on the simple single-stream protocol. Partitioned
	// tables scatter over many sessions, which the 2-site key exchange
	// cannot coordinate either.
	for _, ti := range order {
		if p.siteDegraded(ti) || p.q.Tables[ti].Def.Placement != nil {
			return false
		}
	}
	switch p.opt.Strategy {
	case StrategyDataShip:
		return false
	case StrategyCodeShip:
		return true
	}
	// Auto: worthwhile when the shipped volume clearly exceeds the key
	// exchange volume.
	var total, keys float64
	for _, ti := range order {
		total += p.fragVolumeEstimate(ti)
	}
	for _, jp := range joinPreds {
		keys += float64(p.tableStats(p.cols[jp.LCol].table).RowCount) * float64(p.cols[jp.LCol].avgBytes)
		keys += float64(p.tableStats(p.cols[jp.RCol].table).RowCount) * float64(p.cols[jp.RCol].avgBytes)
	}
	return total > 4*keys
}

// estimate fills the plan's optimizer predictions. Volumes scale by
// partition pruning; the cost is the chosen cuts' modeled cost — the
// number the ranker minimized.
func (p *planner) estimate(plan *Plan, order []int) {
	var cvda, cvdt, selOnly int64
	var cost float64
	for fi, ti := range order {
		frag := plan.Fragments[fi]
		stats := p.tableStats(ti)
		// Partition pruning scales every volume by the surviving
		// fraction: only k of N shards are accessed or shipped.
		frac := 1.0
		if frag.PartsTotal > 0 {
			frac = float64(len(frag.Parts)) / float64(frag.PartsTotal)
		}
		rows := int64(frac * float64(stats.RowCount))
		var inBytes int64
		for _, c := range frag.Cols {
			inBytes += int64(colAvgBytes(p.q.Tables[ti].Def.Schema.Columns[c], stats))
		}
		cvda += rows * inBytes
		v := int64(frac * p.fragVolumeEstimate(ti))
		if len(frag.Aggregates) > 0 {
			g := p.opt.Model.DefaultGroups
			if g > rows {
				g = rows
			}
			var outRow int64
			for _, c := range frag.OutSchema.Columns {
				if w := c.Kind.FixedWireSize(); w > 0 {
					outRow += int64(w)
				} else {
					outRow += 64
				}
			}
			v = g * outRow
		}
		cvdt += v
		// The selectivity-and-cardinality-only estimate prices the
		// shipped stream at full tuple width — it cannot see that large
		// attributes were consumed at the source.
		sf := pushedSF(p.dag, ti, &p.cuts[ti].asg)
		selOnly += int64(sf * float64(rows) * float64(stats.AvgTupleBytes()))
		cost += p.cuts[ti].CostMS
	}
	plan.Est = PlanEstimates{CVDA: cvda, CVDT: cvdt, CVDTSelOnly: selOnly, Cost: cost}
}

// staticCostLine renders the verifier-derived static cost of a
// fragment's shipped classes for EXPLAIN. Every value is an integer
// copied from the release manifest, so the line is byte-deterministic
// across runs (the golden tests rely on that).
func staticCostLine(code []CodeRef) string {
	var parts []string
	for _, ref := range code {
		if ref.Cost == "" {
			continue
		}
		ci, err := vm.ParseCostInfo(ref.Cost)
		if err != nil {
			continue
		}
		instrs := "unbounded"
		if ci.Bounded {
			instrs = fmt.Sprintf("%d", ci.BudgetInstrs)
		}
		parts = append(parts, fmt.Sprintf("%s instrs=%s fixed=%d per-byte=%d scratch=%dB %s",
			ref.Name, instrs, ci.FixedUnits, ci.PerTripUnits, ci.ScratchBytes, ci.Purity))
	}
	return strings.Join(parts, "; ")
}

// Explain renders a human-readable plan summary.
func Explain(plan *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for: %s\n", plan.SQL)
	for i, f := range plan.Fragments {
		fmt.Fprintf(&b, "  fragment %d @ %s: table %s extract %v", i, f.Site, f.Table, f.Cols)
		if f.SemiJoinCol >= 0 {
			fmt.Fprintf(&b, " semijoin-on $%d", f.SemiJoinCol)
		}
		if f.Degraded {
			b.WriteString(" [degraded: data shipping forced by site health]")
		}
		b.WriteByte('\n')
		if f.PartsTotal > 0 {
			targets := make([]string, len(f.Parts))
			for j, pt := range f.Parts {
				targets[j] = fmt.Sprintf("p%d @ %s", pt.ID, pt.Site)
			}
			fmt.Fprintf(&b, "    partitions: %d/%d on %s [%s]\n",
				len(f.Parts), f.PartsTotal, f.PartKey, strings.Join(targets, ", "))
		}
		if f.CutPoint != "" {
			fmt.Fprintf(&b, "    cut: %s (%d cut(s) priced)\n", f.CutPoint, f.CutAlts)
		}
		for _, p := range f.Predicates {
			fmt.Fprintf(&b, "    filter %s\n", p)
		}
		for _, a := range f.Aggregates {
			fmt.Fprintf(&b, "    aggregate %s = %s(...)\n", a.Name, a.Func)
		}
		for _, o := range f.Projections {
			fmt.Fprintf(&b, "    project %s = %s\n", o.Name, o.Expr)
		}
		if len(f.Code) > 0 {
			names := make([]string, len(f.Code))
			for j, c := range f.Code {
				names[j] = c.Name
				if c.Caps != "" {
					names[j] += " [host: " + c.Caps + "]"
				}
			}
			fmt.Fprintf(&b, "    ship code: %s\n", strings.Join(names, ", "))
			if line := staticCostLine(f.Code); line != "" {
				fmt.Fprintf(&b, "    static cost: %s\n", line)
			}
		}
	}
	for _, j := range plan.Joins {
		fmt.Fprintf(&b, "  hash join: combined[$%d] = frag%d[$%d]\n", j.LeftCol, j.RightFrag, j.RightCol)
	}
	for _, pr := range plan.Predicates {
		fmt.Fprintf(&b, "  qpc filter %s\n", pr)
	}
	for _, a := range plan.Aggregates {
		fmt.Fprintf(&b, "  qpc aggregate %s = %s(...)\n", a.Name, a.Func)
	}
	for _, o := range plan.Projections {
		fmt.Fprintf(&b, "  qpc project %s = %s\n", o.Name, o.Expr)
	}
	fmt.Fprintf(&b, "  estimates: CVDA=%d CVDT=%d CVRF=%.6f cost=%.1fms\n",
		plan.Est.CVDA, plan.Est.CVDT, plan.Est.CVRF(), plan.Est.Cost)
	return b.String()
}
