package core

import (
	"encoding/xml"
	"fmt"
	"strings"

	"mocha/internal/types"
)

// CodeRef names one class a site must hold before executing its plan
// piece; it drives the code-deployment phase of section 3.6.
type CodeRef struct {
	Name     string `xml:"name,attr"`
	Version  string `xml:"version,attr"`
	Checksum string `xml:"checksum,attr"`
	// Caps is the verifier's capability manifest: the host intrinsics the
	// class may invoke, comma-joined. Empty means pure stack code.
	Caps string `xml:"caps,attr,omitempty"`
	// Cost is the verifier's static cost-and-resource summary in its
	// canonical vm.CostInfo encoding, stamped from the release manifest
	// so every plan consumer (optimizer, governor, rollout judge) can
	// price the class without holding the blob. Empty on legacy refs.
	Cost string `xml:"cost,attr,omitempty"`
}

// Output is one computed output column.
type Output struct {
	Name string
	Expr *PExpr
}

// AggSpec is one aggregate output: a user-defined aggregate operator
// applied to argument expressions over the input schema.
type AggSpec struct {
	Name string
	Func string
	Args []*PExpr
	Ret  types.Kind
}

// Fragment is the piece of a query plan executed by one DAP (a "DAP
// node" in the paper's plan trees). Execution order at the DAP: extract
// the listed source columns, apply the semi-join filter if any, apply
// predicates in order, then either group-and-aggregate or project.
type Fragment struct {
	Site  string
	Table string
	// Cols are the source-table column indexes extracted from the data
	// server. All fragment expressions index this extracted schema.
	Cols []int
	// InSchema is the extracted schema (parallel to Cols).
	InSchema types.Schema
	// Predicates filter extracted tuples, ordered by the optimizer's
	// rank metric.
	Predicates []*PExpr
	// SemiJoinCol, when >= 0, filters tuples to those whose value in the
	// extracted column appears in the key set delivered before
	// activation (the 2-way semi-join strategy of section 5.4).
	SemiJoinCol int
	// GroupBy and Aggregates, when present, make the fragment emit one
	// row per group; otherwise Projections produce the output.
	GroupBy     []int
	Aggregates  []AggSpec
	Projections []Output
	// Code lists the classes the DAP must load (code shipping manifest).
	Code []CodeRef
	// OutSchema is the schema of emitted tuples.
	OutSchema types.Schema
	// Limit, when positive, stops the fragment after emitting that many
	// tuples (a pushed-down LIMIT).
	Limit int
	// Degraded marks a fragment planned under data shipping because the
	// optimizer's health oracle reported its site degraded (breaker
	// open), overriding the VRF-based placement.
	Degraded bool
	// Parts, when non-empty, scatter the fragment across a partitioned
	// table: one target per surviving (post-pruning) partition, in
	// partition order. Site/Table then only name the primary of the
	// first target; execution clones the fragment per target.
	Parts []PartTarget
	// PartsTotal is the partition count before pruning (0 for an
	// unpartitioned fragment); PartKey names the partition key column.
	PartsTotal int
	PartKey    string
	// CutPoint is the human-readable split point the DAG-cut search
	// chose for this fragment's table ("scan-only" when every operator
	// stayed above the cut); CutAlts is how many feasible cuts the
	// ranker priced (1 under forced strategies and for degraded sites).
	CutPoint string
	CutAlts  int
}

// PartTarget is one partition the scatter phase must read: its physical
// table, the primary replica site the plan prefers, and the full
// replica set failover may fall back to (primary first).
type PartTarget struct {
	ID       int
	Table    string
	Site     string
	Replicas []string
}

// JoinStep joins the accumulated left input with fragment RightFrag's
// output on an equality of small-object columns.
type JoinStep struct {
	RightFrag int
	// LeftCol indexes the accumulated (already joined) schema; RightCol
	// indexes the right fragment's OutSchema.
	LeftCol, RightCol int
}

// OrderSpec is one ORDER BY key over the result schema.
type OrderSpec struct {
	Col  int
	Desc bool
}

// Plan is a complete physical plan: per-site fragments plus the work the
// QPC performs on their combined streams. Plans are encoded as XML
// documents for distribution, as in the paper.
type Plan struct {
	SQL       string
	Fragments []*Fragment
	// Joins chain fragments left-deep: start with Fragments[0]'s stream,
	// then join each step's right fragment.
	Joins []JoinStep
	// CombinedSchema is the schema after all joins (concatenated
	// fragment outputs in join order).
	CombinedSchema types.Schema
	// QPC-side operators over the combined schema:
	Predicates  []*PExpr
	GroupBy     []int
	Aggregates  []AggSpec
	Projections []Output
	OrderBy     []OrderSpec
	Limit       int // -1 none
	// ResultSchema is the schema delivered to the client.
	ResultSchema types.Schema

	// Estimates recorded by the optimizer for explain output and the
	// metric-accuracy experiments.
	Est PlanEstimates
}

// PlanEstimates carries the optimizer's predictions.
type PlanEstimates struct {
	// CVDA is the estimated total data volume accessed at the sources.
	CVDA int64
	// CVDT is the VRF-based estimate of the volume transmitted.
	CVDT int64
	// CVDTSelOnly estimates transmitted volume using selectivity and
	// cardinality alone (the baseline metric the paper argues against).
	CVDTSelOnly int64
	// Cost is the modeled cost of the chosen cut summed over tables
	// (transfer plus compute, milliseconds): the number the cut search
	// minimized. Unlike the volumes, it is not scaled by partition
	// pruning.
	Cost float64
}

// CVRF returns the estimated cumulative volume reduction factor.
func (e PlanEstimates) CVRF() float64 {
	if e.CVDA == 0 {
		return 0
	}
	return float64(e.CVDT) / float64(e.CVDA)
}

// ---- XML encoding ----

type outputXML struct {
	Name string  `xml:"name,attr"`
	Expr exprXML `xml:"expr"`
}

type aggXML struct {
	Name string    `xml:"name,attr"`
	Func string    `xml:"func,attr"`
	Ret  string    `xml:"ret,attr"`
	Args []exprXML `xml:"expr"`
}

type schemaXML struct {
	Columns []schemaColXML `xml:"column"`
}

type schemaColXML struct {
	Name string `xml:"name,attr"`
	Kind string `xml:"kind,attr"`
}

type fragmentXML struct {
	XMLName     xml.Name `xml:"fragment"`
	Site        string   `xml:"site,attr"`
	Table       string   `xml:"table,attr"`
	SemiJoinCol int      `xml:"semijoin-col,attr"`
	Limit       int      `xml:"limit,attr"`
	Degraded    bool     `xml:"degraded,attr,omitempty"`
	// Requires lists the plan features (space-separated tokens) a
	// consumer must understand to execute this fragment faithfully. A
	// decoder that does not know a token must refuse the document, not
	// silently drop what it cannot parse.
	Requires    string      `xml:"requires,attr,omitempty"`
	Cut         *cutXML     `xml:"cut,omitempty"`
	Parts       *partsXML   `xml:"parts,omitempty"`
	Cols        []int       `xml:"extract>col"`
	InSchema    schemaXML   `xml:"in-schema"`
	Predicates  []exprXML   `xml:"predicates>expr"`
	GroupBy     []int       `xml:"group-by>col"`
	Aggregates  []aggXML    `xml:"aggregates>agg"`
	Projections []outputXML `xml:"projections>output"`
	Code        []CodeRef   `xml:"code>class"`
	OutSchema   schemaXML   `xml:"out-schema"`
}

// cutXML carries the DAG-cut annotation: the chosen split point and how
// many feasible cuts the ranker priced before choosing it.
type cutXML struct {
	Point string `xml:"point,attr"`
	Alts  int    `xml:"alts,attr"`
}

// featureDagCut marks a plan document whose fragments carry DAG-cut
// annotations; decoders that do not understand cuts must refuse it.
const featureDagCut = "dag-cut"

// supportedPlanFeatures lists every `requires` token this build's
// decoder understands. Unknown tokens make decoding fail with
// *UnsupportedPlanFeatureError rather than silently misreading the plan.
var supportedPlanFeatures = map[string]bool{
	featureDagCut: true,
}

// UnsupportedPlanFeatureError reports a plan document that declares
// `requires` tokens this decoder does not implement. It is a typed
// error so an old QPC/DAP can distinguish "plan from the future" from
// a malformed document.
type UnsupportedPlanFeatureError struct {
	Features []string
}

func (e *UnsupportedPlanFeatureError) Error() string {
	return fmt.Sprintf("core: plan requires unsupported features %v", e.Features)
}

// checkRequires validates a space-separated `requires` attribute
// against supportedPlanFeatures.
func checkRequires(requires string) error {
	var unknown []string
	for _, tok := range strings.Fields(requires) {
		if !supportedPlanFeatures[tok] {
			unknown = append(unknown, tok)
		}
	}
	if len(unknown) > 0 {
		return &UnsupportedPlanFeatureError{Features: unknown}
	}
	return nil
}

// partsXML carries a fragment's scatter targets: total pre-pruning
// partition count, key column and one <part> per surviving partition.
type partsXML struct {
	Total int       `xml:"total,attr"`
	Key   string    `xml:"key,attr,omitempty"`
	Parts []partXML `xml:"part"`
}

type partXML struct {
	ID       int       `xml:"id,attr"`
	Table    string    `xml:"table,attr"`
	Site     string    `xml:"site,attr"`
	Replicas []siteRef `xml:"replica"`
}

type siteRef struct {
	Name string `xml:"name,attr"`
}

type joinXML struct {
	RightFrag int `xml:"right-frag,attr"`
	LeftCol   int `xml:"left-col,attr"`
	RightCol  int `xml:"right-col,attr"`
}

type orderXML struct {
	Col  int  `xml:"col,attr"`
	Desc bool `xml:"desc,attr"`
}

type planXML struct {
	XMLName        xml.Name      `xml:"plan"`
	Requires       string        `xml:"requires,attr,omitempty"`
	SQL            string        `xml:"sql"`
	Fragments      []fragmentXML `xml:"fragment"`
	Joins          []joinXML     `xml:"join"`
	CombinedSchema schemaXML     `xml:"combined-schema"`
	Predicates     []exprXML     `xml:"predicates>expr"`
	GroupBy        []int         `xml:"group-by>col"`
	Aggregates     []aggXML      `xml:"aggregates>agg"`
	Projections    []outputXML   `xml:"projections>output"`
	OrderBy        []orderXML    `xml:"order-by>key"`
	Limit          int           `xml:"limit"`
	ResultSchema   schemaXML     `xml:"result-schema"`
}

func schemaToXML(s types.Schema) schemaXML {
	var x schemaXML
	for _, c := range s.Columns {
		x.Columns = append(x.Columns, schemaColXML{Name: c.Name, Kind: c.Kind.String()})
	}
	return x
}

func schemaFromXML(x schemaXML) (types.Schema, error) {
	var s types.Schema
	for _, c := range x.Columns {
		k, ok := types.KindByName(c.Kind)
		if !ok {
			return types.Schema{}, fmt.Errorf("core: schema column %q has unknown kind %q", c.Name, c.Kind)
		}
		s.Columns = append(s.Columns, types.Column{Name: c.Name, Kind: k})
	}
	return s, nil
}

func outputsToXML(outs []Output) []outputXML {
	x := make([]outputXML, len(outs))
	for i, o := range outs {
		x[i] = outputXML{Name: o.Name, Expr: exprToXML(o.Expr)}
	}
	return x
}

func outputsFromXML(xs []outputXML) ([]Output, error) {
	out := make([]Output, len(xs))
	for i, x := range xs {
		e, err := exprFromXML(x.Expr)
		if err != nil {
			return nil, err
		}
		out[i] = Output{Name: x.Name, Expr: e}
	}
	return out, nil
}

func aggsToXML(aggs []AggSpec) []aggXML {
	x := make([]aggXML, len(aggs))
	for i, a := range aggs {
		x[i] = aggXML{Name: a.Name, Func: a.Func, Ret: a.Ret.String()}
		for _, arg := range a.Args {
			x[i].Args = append(x[i].Args, exprToXML(arg))
		}
	}
	return x
}

func aggsFromXML(xs []aggXML) ([]AggSpec, error) {
	out := make([]AggSpec, len(xs))
	for i, x := range xs {
		ret, ok := types.KindByName(x.Ret)
		if !ok {
			return nil, fmt.Errorf("core: aggregate %q has unknown kind %q", x.Name, x.Ret)
		}
		a := AggSpec{Name: x.Name, Func: x.Func, Ret: ret}
		for _, ax := range x.Args {
			e, err := exprFromXML(ax)
			if err != nil {
				return nil, err
			}
			a.Args = append(a.Args, e)
		}
		out[i] = a
	}
	return out, nil
}

func exprsToXML(es []*PExpr) []exprXML {
	x := make([]exprXML, len(es))
	for i, e := range es {
		x[i] = exprToXML(e)
	}
	return x
}

func exprsFromXML(xs []exprXML) ([]*PExpr, error) {
	out := make([]*PExpr, len(xs))
	for i, x := range xs {
		e, err := exprFromXML(x)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func fragmentToXML(f *Fragment) fragmentXML {
	x := fragmentXML{
		Site: f.Site, Table: f.Table, SemiJoinCol: f.SemiJoinCol, Limit: f.Limit,
		Degraded: f.Degraded,
		Cols:     f.Cols, InSchema: schemaToXML(f.InSchema),
		Predicates: exprsToXML(f.Predicates), GroupBy: f.GroupBy,
		Aggregates: aggsToXML(f.Aggregates), Projections: outputsToXML(f.Projections),
		Code: f.Code, OutSchema: schemaToXML(f.OutSchema),
	}
	if f.PartsTotal > 0 {
		px := &partsXML{Total: f.PartsTotal, Key: f.PartKey}
		for _, pt := range f.Parts {
			p := partXML{ID: pt.ID, Table: pt.Table, Site: pt.Site}
			for _, r := range pt.Replicas {
				p.Replicas = append(p.Replicas, siteRef{Name: r})
			}
			px.Parts = append(px.Parts, p)
		}
		x.Parts = px
	}
	if f.CutPoint != "" {
		x.Requires = featureDagCut
		x.Cut = &cutXML{Point: f.CutPoint, Alts: f.CutAlts}
	}
	return x
}

func fragmentFromXML(x fragmentXML) (*Fragment, error) {
	if err := checkRequires(x.Requires); err != nil {
		return nil, err
	}
	in, err := schemaFromXML(x.InSchema)
	if err != nil {
		return nil, err
	}
	out, err := schemaFromXML(x.OutSchema)
	if err != nil {
		return nil, err
	}
	preds, err := exprsFromXML(x.Predicates)
	if err != nil {
		return nil, err
	}
	aggs, err := aggsFromXML(x.Aggregates)
	if err != nil {
		return nil, err
	}
	projs, err := outputsFromXML(x.Projections)
	if err != nil {
		return nil, err
	}
	f := &Fragment{
		Site: x.Site, Table: x.Table, SemiJoinCol: x.SemiJoinCol, Limit: x.Limit,
		Degraded: x.Degraded,
		Cols:     x.Cols, InSchema: in, Predicates: preds, GroupBy: x.GroupBy,
		Aggregates: aggs, Projections: projs, Code: x.Code, OutSchema: out,
	}
	if x.Parts != nil {
		f.PartsTotal = x.Parts.Total
		f.PartKey = x.Parts.Key
		for _, p := range x.Parts.Parts {
			pt := PartTarget{ID: p.ID, Table: p.Table, Site: p.Site}
			for _, r := range p.Replicas {
				pt.Replicas = append(pt.Replicas, r.Name)
			}
			f.Parts = append(f.Parts, pt)
		}
	}
	if x.Cut != nil {
		f.CutPoint = x.Cut.Point
		f.CutAlts = x.Cut.Alts
	}
	return f, nil
}

// EncodeFragment renders a fragment as an XML plan document for
// transmission to its DAP.
func EncodeFragment(f *Fragment) ([]byte, error) {
	return xml.MarshalIndent(fragmentToXML(f), "", "  ")
}

// DecodeFragment parses a fragment document.
func DecodeFragment(data []byte) (*Fragment, error) {
	var x fragmentXML
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("core: parse fragment: %w", err)
	}
	return fragmentFromXML(x)
}

// EncodePlan renders the whole plan as XML (used for explain output and
// plan archival).
func EncodePlan(p *Plan) ([]byte, error) {
	x := planXML{
		SQL: p.SQL, CombinedSchema: schemaToXML(p.CombinedSchema),
		Predicates: exprsToXML(p.Predicates), GroupBy: p.GroupBy,
		Aggregates: aggsToXML(p.Aggregates), Projections: outputsToXML(p.Projections),
		Limit: p.Limit, ResultSchema: schemaToXML(p.ResultSchema),
	}
	for _, f := range p.Fragments {
		fx := fragmentToXML(f)
		if fx.Requires != "" {
			x.Requires = fx.Requires
		}
		x.Fragments = append(x.Fragments, fx)
	}
	for _, j := range p.Joins {
		x.Joins = append(x.Joins, joinXML(j))
	}
	for _, o := range p.OrderBy {
		x.OrderBy = append(x.OrderBy, orderXML(o))
	}
	return xml.MarshalIndent(x, "", "  ")
}

// DecodePlan parses a plan document.
func DecodePlan(data []byte) (*Plan, error) {
	var x planXML
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("core: parse plan: %w", err)
	}
	if err := checkRequires(x.Requires); err != nil {
		return nil, err
	}
	p := &Plan{SQL: x.SQL, GroupBy: x.GroupBy, Limit: x.Limit}
	var err error
	if p.CombinedSchema, err = schemaFromXML(x.CombinedSchema); err != nil {
		return nil, err
	}
	if p.ResultSchema, err = schemaFromXML(x.ResultSchema); err != nil {
		return nil, err
	}
	if p.Predicates, err = exprsFromXML(x.Predicates); err != nil {
		return nil, err
	}
	if p.Aggregates, err = aggsFromXML(x.Aggregates); err != nil {
		return nil, err
	}
	if p.Projections, err = outputsFromXML(x.Projections); err != nil {
		return nil, err
	}
	for _, fx := range x.Fragments {
		f, err := fragmentFromXML(fx)
		if err != nil {
			return nil, err
		}
		p.Fragments = append(p.Fragments, f)
	}
	for _, j := range x.Joins {
		p.Joins = append(p.Joins, JoinStep(j))
	}
	for _, o := range x.OrderBy {
		p.OrderBy = append(p.OrderBy, OrderSpec(o))
	}
	return p, nil
}
