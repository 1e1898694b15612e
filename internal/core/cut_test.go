package core

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"mocha/internal/catalog"
	"mocha/internal/sqlparser"
	"mocha/internal/types"
)

// TestTwoCallPredicatePricesAllCalls is the regression test for the
// firstCall pricing bug: an expression with two calls must charge the
// CPU of both, not just the first — pricing only the first silently
// skewed placement rank for composed predicates.
func TestTwoCallPredicatePricesAllCalls(t *testing.T) {
	cat := sequoiaCatalog(t)
	graph := NewCol(1, types.KindGraph)
	pred := &PExpr{Kind: ExprBinop, Op: "<", Ret: types.KindBool, Args: []*PExpr{
		{Kind: ExprBinop, Op: "+", Ret: types.KindDouble, Args: []*PExpr{
			{Kind: ExprCall, Func: "NumVertices", Ret: types.KindInt, Args: []*PExpr{graph}},
			{Kind: ExprCall, Func: "TotalLength", Ret: types.KindDouble, Args: []*PExpr{graph}},
		}},
		NewConst(types.Int(100000)),
	}}
	nv, ok := cat.Ops().Lookup("NumVertices")
	if !ok {
		t.Fatal("NumVertices not registered")
	}
	tl, ok := cat.Ops().Lookup("TotalLength")
	if !ok {
		t.Fatal("TotalLength not registered")
	}
	p := predicatePlacement(pred, "Graphs", 166, 0, cat)
	want := nv.CPUCostPerByte + tl.CPUCostPerByte
	if p.CompCostPerByte != want {
		t.Errorf("CompCostPerByte = %v, want %v (sum of both calls)", p.CompCostPerByte, want)
	}
	if p.CompCostPerByte <= nv.CPUCostPerByte {
		t.Errorf("second call contributed nothing: %v", p.CompCostPerByte)
	}
	// The selectivity key is still the first (dominant) call.
	if p.Func != "NumVertices" {
		t.Errorf("Func = %q, want NumVertices", p.Func)
	}
}

// TestTwoCallPredicatePlans covers the same fix end to end: a predicate
// composing two calls plans, both calls land on the same side of the
// cut, and the cut annotation names the predicate.
func TestTwoCallPredicatePlans(t *testing.T) {
	cat := sequoiaCatalog(t)
	sql := "SELECT name FROM Graphs WHERE NumVertices(graph) + TotalLength(graph) < 100000"
	plan := planQuery(t, cat, StrategyAuto, sql)
	f := plan.Fragments[0]
	if len(f.Predicates) != 1 {
		t.Fatalf("predicate not pushed:\n%s", Explain(plan))
	}
	if calls := allCalls(f.Predicates[0]); len(calls) != 2 {
		t.Fatalf("pushed predicate carries %d calls, want 2:\n%s", len(calls), Explain(plan))
	}
	if !strings.Contains(f.CutPoint, "pred NumVertices") {
		t.Errorf("cut point %q does not name the predicate", f.CutPoint)
	}
}

// TestCutXMLRoundTripQuick round-trips randomized cut annotations
// through the fragment XML codec.
func TestCutXMLRoundTripQuick(t *testing.T) {
	cat := sequoiaCatalog(t)
	base := planQuery(t, cat, StrategyAuto,
		"SELECT time FROM Rasters WHERE AvgEnergy(image) < 100")
	f := func(point string, alts uint8) bool {
		frag := *base.Fragments[0]
		// XML cannot carry every byte sequence (invalid UTF-8, control
		// chars); the planner only ever writes printable ASCII points.
		frag.CutPoint = strings.Map(func(r rune) rune {
			if r < 0x20 || r > 0x7e {
				return '_'
			}
			return r
		}, point)
		frag.CutAlts = int(alts)
		data, err := EncodeFragment(&frag)
		if frag.CutPoint == "" {
			// An empty point means "no cut annotation": the codec omits
			// the element entirely, so alts cannot survive alone.
			if err != nil {
				t.Logf("encode: %v", err)
				return false
			}
			got, err := DecodeFragment(data)
			return err == nil && got.CutPoint == "" && got.CutAlts == 0
		}
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		got, err := DecodeFragment(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return got.CutPoint == frag.CutPoint && got.CutAlts == frag.CutAlts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPlanXMLCarriesCut checks the whole-plan codec: a cut-annotated
// plan declares the dag-cut feature and the annotation survives the
// round trip.
func TestPlanXMLCarriesCut(t *testing.T) {
	cat := sequoiaCatalog(t)
	plan := planQuery(t, cat, StrategyCodeShip,
		"SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100")
	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `requires="dag-cut"`) {
		t.Fatalf("encoded plan does not declare dag-cut:\n%s", data)
	}
	got, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fragments[0].CutPoint != plan.Fragments[0].CutPoint ||
		got.Fragments[0].CutAlts != plan.Fragments[0].CutAlts {
		t.Errorf("cut annotation lost: got %q/%d, want %q/%d",
			got.Fragments[0].CutPoint, got.Fragments[0].CutAlts,
			plan.Fragments[0].CutPoint, plan.Fragments[0].CutAlts)
	}
}

// TestDecodeRefusesUnknownPlanFeature pins the feature gate: a consumer
// that does not implement a plan's `requires` tokens must refuse the
// document with the typed error, never silently misread it.
func TestDecodeRefusesUnknownPlanFeature(t *testing.T) {
	cat := sequoiaCatalog(t)
	plan := planQuery(t, cat, StrategyCodeShip,
		"SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100")
	frag, err := EncodeFragment(plan.Fragments[0])
	if err != nil {
		t.Fatal(err)
	}
	doc, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		dec  func([]byte) error
	}{
		{"fragment", frag, func(b []byte) error { _, err := DecodeFragment(b); return err }},
		{"plan", doc, func(b []byte) error { _, err := DecodePlan(b); return err }},
	} {
		// The current feature set decodes.
		if err := tc.dec(tc.data); err != nil {
			t.Fatalf("%s: supported features refused: %v", tc.name, err)
		}
		// A future feature token is refused with the typed error.
		future := strings.Replace(string(tc.data), `requires="dag-cut"`, `requires="dag-cut time-travel"`, 1)
		err := tc.dec([]byte(future))
		var fe *UnsupportedPlanFeatureError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: unknown feature not refused with typed error: %v", tc.name, err)
		}
		if len(fe.Features) != 1 || fe.Features[0] != "time-travel" {
			t.Errorf("%s: Features = %v, want [time-travel]", tc.name, fe.Features)
		}
	}
}

// TestRankedCutNeverShipsMore pins the ranked search's volume
// guarantee: on every ladder query the ranked cut's estimated CVDT is
// at or below the greedy per-operator baseline's.
func TestRankedCutNeverShipsMore(t *testing.T) {
	cat := sequoiaCatalog(t)
	queries := []string{
		"SELECT landuse, Perimeter(polygon) FROM Polygons WHERE Perimeter(polygon) < 100",
		"SELECT name FROM Graphs WHERE NumVertices(graph) < 300 AND TotalLength(graph) < 10000",
		"SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 50",
		"SELECT band, Count(time) FROM Rasters GROUP BY band",
		"SELECT time, IncrRes(image, 2) FROM Rasters",
		"SELECT name FROM Graphs WHERE NumVertices(graph) + TotalLength(graph) < 100000",
		`SELECT R1.time, Diff(AvgEnergy(R1.image), AvgEnergy(R2.image))
FROM Rasters1 AS R1, Rasters2 AS R2 WHERE R1.location = R2.location`,
	}
	for _, sql := range queries {
		ranked := planSearch(t, cat, CutSearchRanked, sql)
		greedy := planSearch(t, cat, CutSearchGreedy, sql)
		if r, g := ranked.Est.CVDT, greedy.Est.CVDT; r > g {
			t.Errorf("%s: ranked CVDT %d exceeds greedy %d", sql, r, g)
		}
	}
}

// planSearch plans a query under StrategyAuto with the given cut-search
// mode.
func planSearch(t *testing.T, cat *catalog.Catalog, search CutSearch, sql string) *Plan {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := Bind(sel, cat)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	opt := NewOptimizer(cat)
	opt.Search = search
	plan, err := opt.Plan(q)
	if err != nil {
		t.Fatalf("plan [%s]: %v", search, err)
	}
	return plan
}

// TestComposedExpressionSplitsMidExpression pins the tentpole's
// headline capability: Diff(AvgEnergy(x), AvgEnergy(y)) splits inside
// the expression — each AvgEnergy below its own DAP's cut, Diff above —
// and EXPLAIN renders a below-join cut on both sites.
func TestComposedExpressionSplitsMidExpression(t *testing.T) {
	cat := sequoiaCatalog(t)
	sql := `SELECT R1.time, Diff(AvgEnergy(R1.image), AvgEnergy(R2.image))
FROM Rasters1 AS R1, Rasters2 AS R2 WHERE R1.location = R2.location`
	for _, s := range []Strategy{StrategyAuto, StrategyCodeShip} {
		plan := planQuery(t, cat, s, sql)
		out := Explain(plan)
		for i, f := range plan.Fragments {
			if !strings.Contains(f.CutPoint, "call AvgEnergy") {
				t.Errorf("[%s] fragment %d cut %q does not push AvgEnergy:\n%s", s, i, f.CutPoint, out)
			}
		}
		if !strings.Contains(out, "cut: below=[call AvgEnergy]") {
			t.Errorf("[%s] explain lacks the below-join cut line:\n%s", s, out)
		}
	}
}

// TestCutPointNamesShippedRootsOnly is the regression test for counting
// a pushed predicate as still needed above the cut: its call and columns
// run at the DAP, so neither the cut annotation nor the ranker's shipped
// volume may include them.
func TestCutPointNamesShippedRootsOnly(t *testing.T) {
	cat := sequoiaCatalog(t)
	sql := "SELECT name FROM Graphs WHERE NumVertices(graph) < 300"
	for _, search := range []CutSearch{CutSearchRanked, CutSearchGreedy} {
		plan := planSearch(t, cat, search, sql)
		f := plan.Fragments[0]
		if f.CutPoint != "below=[pred NumVertices]" {
			t.Errorf("[%s] cut point %q, want below=[pred NumVertices]", search, f.CutPoint)
		}
		if f.OutSchema.Arity() != 1 || f.OutSchema.Columns[0].Name != "name" {
			t.Errorf("[%s] fragment ships %v, want only name", search, f.OutSchema)
		}
	}
}

// TestEstCostPricesShippedProjectionArgument is the regression test for
// pricing a shipped projection against the wrong column space: the
// estimate must charge AvgEnergy for the raster it reads, not for
// whichever extended column shares the projection's fragment-local
// index.
func TestEstCostPricesShippedProjectionArgument(t *testing.T) {
	cat := sequoiaCatalog(t)
	plan := planQuery(t, cat, StrategyCodeShip, "SELECT time, AvgEnergy(image) FROM Rasters")
	cls, ok := cat.Repo().Get("AvgEnergy")
	if !ok || cls.Cost.IsZero() {
		t.Fatal("AvgEnergy has no static cost stamp")
	}
	tbl, _ := cat.Table("Rasters")
	floor := DefaultCostModel().CompMSStatic(tbl.Stats.RowCount, 128<<10, cls.Cost)
	if plan.Est.Cost < floor {
		t.Errorf("Est.Cost = %.3fms, below the %.3fms of running AvgEnergy over 128 KiB rasters:\n%s",
			plan.Est.Cost, floor, Explain(plan))
	}
}
