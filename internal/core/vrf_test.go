package core

import (
	"testing"
	"testing/quick"

	"mocha/internal/catalog"
	"mocha/internal/ops"
	"mocha/internal/sqlparser"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// TestQuickPredicateVRFBounds: for any selectivity and attribute sizes,
// the predicate VRF stays within [0, SF] — shipping the reduced rows can
// never look worse than the bare selectivity, which is exactly the
// paper's argument for the metric.
func TestQuickPredicateVRFBounds(t *testing.T) {
	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	pred := &PExpr{Kind: ExprBinop, Op: "<", Ret: types.KindBool, Args: []*PExpr{
		{Kind: ExprCall, Func: "NumVertices", Ret: types.KindInt,
			Args: []*PExpr{NewCol(0, types.KindGraph)}},
		NewConst(types.Int(10)),
	}}
	f := func(sfRaw uint8, outRaw, argRaw uint16) bool {
		sf := float64(sfRaw%101) / 100
		outBytes := int(outRaw%4096) + 1
		argOnly := int(argRaw)
		cat.SetSelectivity("NumVertices", "T", sf)
		p := predicatePlacement(pred, "T", outBytes, argOnly, cat)
		if p.VRF < 0 || p.VRF > p.SF+1e-12 {
			return false
		}
		// More argument-only bytes can only shrink the VRF.
		p2 := predicatePlacement(pred, "T", outBytes, argOnly+1000, cat)
		return p2.VRF <= p.VRF+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickProjectionVRFMonotone: a projection's VRF, as the cut
// search models it, scales inversely with its argument volume.
func TestQuickProjectionVRFMonotone(t *testing.T) {
	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	cat.AddSite(&catalog.Site{Name: "site1", Addr: "dap1"})
	if err := cat.AddTable(&catalog.TableDef{
		Name: "T", URI: "mocha://tables/T", Site: "site1",
		Schema: types.NewSchema(types.Column{Name: "image", Kind: types.KindRaster}),
		Stats:  catalog.TableStats{RowCount: 100, Columns: []catalog.ColumnStats{{Name: "image"}}},
	}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := cat.Table("T")
	sel, err := sqlparser.Parse("SELECT AvgEnergy(image) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	vrf := func(size int) float64 {
		tbl.Stats.Columns[0].AvgBytes = size
		q, err := Bind(sel, cat)
		if err != nil {
			t.Fatal(err)
		}
		d := newPlanner(NewOptimizer(cat), q).buildDAG()
		return d.nodes[d.calls[0][0]].vrf()
	}
	f := func(szRaw uint16) bool {
		size := int(szRaw) + 16
		v, v2 := vrf(size), vrf(size*2)
		// Fixed 8-byte result: doubling the input halves the VRF.
		return v2 <= v+1e-12 && v > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCostModelMonotonicity: more bytes ⇒ more time, for both terms.
func TestCostModelMonotonicity(t *testing.T) {
	m := DefaultCostModel()
	if m.NetworkMS(2000) <= m.NetworkMS(1000) {
		t.Error("network cost not monotone")
	}
	if m.CompMS(2000, 1, false) <= m.CompMS(1000, 1, false) {
		t.Error("compute cost not monotone")
	}
	if m.CompMS(1000, 1, true) <= m.CompMS(1000, 1, false) {
		t.Error("VM execution should cost more than native")
	}
	if (CostModel{}).NetworkMS(1000) != 0 {
		t.Error("zero-bandwidth model should cost nothing")
	}
	// 1.25 MB at 10 Mbps = 1000 ms.
	if got := m.NetworkMS(1_250_000); got != 1000 {
		t.Errorf("NetworkMS(1.25MB) = %g, want 1000", got)
	}
}

// TestPlacementRankOrdering: rank (SF−1)/cost sorts highly selective,
// cheap predicates first.
func TestPlacementRankOrdering(t *testing.T) {
	m := DefaultCostModel()
	cheapSelective := OpPlacement{SF: 0.1, CompCostPerByte: 0.01}
	expensiveSelective := OpPlacement{SF: 0.1, CompCostPerByte: 10}
	cheapLoose := OpPlacement{SF: 0.9, CompCostPerByte: 0.01}
	if !(cheapSelective.Rank(m, 100) < cheapLoose.Rank(m, 100)) {
		t.Error("selective predicate should rank before loose one at equal cost")
	}
	if !(cheapSelective.Rank(m, 100) < expensiveSelective.Rank(m, 100)) {
		t.Error("cheap predicate should rank before expensive one at equal SF")
	}
}

// TestCompMSStatic pins the static pricing formula and its rate
// fallback: invocations x (fixed + pertrip x argBytes) interpreted
// instructions at InstrsPerMS, with a zero/negative rate falling back
// to the default.
func TestCompMSStatic(t *testing.T) {
	ci := vm.CostInfo{FixedUnits: 100, PerTripUnits: 2}
	m := DefaultCostModel()
	want := 10 * (100.0 + 2.0*50) / m.InstrsPerMS
	if got := m.CompMSStatic(10, 50, ci); got != want {
		t.Errorf("CompMSStatic = %v, want %v", got, want)
	}
	m.InstrsPerMS = 0
	if got := m.CompMSStatic(10, 50, ci); got != want {
		t.Errorf("CompMSStatic with zero rate = %v, want default-rate %v", got, want)
	}
}
