package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mocha/internal/catalog"
	"mocha/internal/sequoia"
	"mocha/internal/sqlparser"
	"mocha/internal/types"
)

// Golden plan corpus: every plan the optimizer emits for a fixed set of
// queries, under every strategy and cut-search mode, on a plain, a
// range-partitioned and a health-degraded catalog. Each file pins the
// full plan XML plus the integer volume estimates, so any change to
// placement, fragment shape, virtual-column naming or CVDA/CVDT shows
// up as a diff. Regenerate with:
//
//	go test ./internal/core -run TestPlanCorpusGolden -update

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// corpusQueries are the shapes the corpus covers: the paper's Q1–Q6,
// the composed-operator workload of the cut experiment, the EXPLAIN
// golden queries, and the planner's edge shapes (aggregate over a call,
// LIMIT pushdown, two-call predicate, deduplicated and nested pushed
// calls, constant-only call, cross-table predicate, redundant join
// equality).
var corpusQueries = []struct{ name, sql string }{
	{"q1", sequoia.Q1},
	{"q2", sequoia.Q2(sequoia.PaperScale())},
	{"q3", sequoia.Q3},
	{"q4", sequoia.Q4(300, 10000)},
	{"q5", sequoia.Q5},
	{"q6", sequoia.Q6},
	{"composed_join", `SELECT R1.time, Diff(AvgEnergy(R1.image), AvgEnergy(R2.image))
FROM Rasters1 AS R1, Rasters2 AS R2 WHERE R1.location = R2.location`},
	{"composed_proj", `SELECT time, Diff(AvgEnergy(image), 0.0) FROM Rasters`},
	{"composed_pred", `SELECT name FROM Graphs
WHERE NumVertices(graph) + TotalLength(graph) < 100000`},
	{"explain_scan_predicate", "SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100"},
	{"explain_aggregate", "SELECT band, Count(time) FROM Rasters GROUP BY band"},
	{"explain_inflate", "SELECT time, IncrRes(image, 2) FROM Rasters"},
	{"group_by_call", "SELECT band, Avg(AvgEnergy(image)), Count(time) FROM Rasters GROUP BY band"},
	{"limit", "SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 50 LIMIT 3"},
	{"order_limit", "SELECT name FROM Graphs WHERE NumVertices(graph) < 300 ORDER BY name DESC LIMIT 7"},
	{"two_call_pred", "SELECT name FROM Graphs WHERE NumVertices(graph) + TotalLength(graph) < 100000"},
	{"dedup_call", "SELECT AvgEnergy(image), AvgEnergy(image) / 2.0, time FROM Rasters"},
	{"nested_call", "SELECT time, AvgEnergy(Clip(image, MakeRect(0.0, 0.0, 100.0, 100.0))) FROM Rasters"},
	{"const_call", "SELECT time, Diff(1.0, 2.0) FROM Rasters"},
	{"cross_pred", `SELECT R1.time FROM Rasters1 R1, Rasters2 R2
WHERE R1.location = R2.location AND AvgEnergy(R1.image) < AvgEnergy(R2.image)`},
	{"redundant_join", `SELECT R1.time FROM Rasters1 R1, Rasters2 R2
WHERE R1.location = R2.location AND R1.time = R2.time`},
}

// partitionedQueries run against Rasters split into three range shards
// on time: a predicate on the key prunes, one off the key does not.
var partitionedQueries = []struct{ name, sql string }{
	{"pruned", "SELECT time, AvgEnergy(image) FROM Rasters WHERE time < 100 AND AvgEnergy(image) < 100"},
	{"unpruned", "SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100"},
	{"aggregate", "SELECT band, Avg(AvgEnergy(image)) FROM Rasters GROUP BY band"},
}

// degradedQueries touch site2, which the degraded variant's oracle
// reports sick.
var degradedQueries = []string{"q5", "q6", "composed_join", "cross_pred"}

type siteDown string

func (s siteDown) Degraded(site string) bool { return site == string(s) }

// corpusCatalog extends the unit-test catalog with Rasters3 (Q6's third
// site) and, when partitioned, splits Rasters into three range shards.
func corpusCatalog(t *testing.T, partitioned bool) *catalog.Catalog {
	t.Helper()
	cat := sequoiaCatalog(t)
	cat.AddSite(&catalog.Site{Name: "site3", Addr: "dap3"})
	schema := types.NewSchema(
		types.Column{Name: "time", Kind: types.KindInt},
		types.Column{Name: "band", Kind: types.KindInt},
		types.Column{Name: "location", Kind: types.KindRectangle},
		types.Column{Name: "image", Kind: types.KindRaster},
	)
	st := catalog.TableStats{RowCount: 120}
	for i, n := range []int{4, 4, 16, 128 << 10} {
		st.Columns = append(st.Columns, catalog.ColumnStats{Name: schema.Columns[i].Name, AvgBytes: n})
	}
	if err := cat.AddTable(&catalog.TableDef{
		Name: "Rasters3", URI: "mocha://tables/Rasters3", Site: "site3", Schema: schema, Stats: st,
	}); err != nil {
		t.Fatal(err)
	}
	if partitioned {
		tbl, _ := cat.Table("Rasters")
		tbl.Placement = &catalog.Placement{
			Key: "time", Kind: catalog.PlaceRange,
			Parts: []catalog.Partition{
				{Table: "Rasters__p0", Replicas: []string{"site1", "site2"}, HasHi: true, Hi: 100},
				{Table: "Rasters__p1", Replicas: []string{"site2", "site3"}, HasLo: true, Lo: 100, HasHi: true, Hi: 200},
				{Table: "Rasters__p2", Replicas: []string{"site3", "site1"}, HasLo: true, Lo: 200},
			},
		}
	}
	return cat
}

// corpusEntry plans sql under every strategy x search combination and
// renders the plan XML plus the integer estimates of each.
func corpusEntry(t *testing.T, cat *catalog.Catalog, health HealthOracle, sql string) string {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	var b strings.Builder
	for _, strategy := range []Strategy{StrategyAuto, StrategyCodeShip, StrategyDataShip} {
		for _, search := range []CutSearch{CutSearchRanked, CutSearchGreedy} {
			q, err := Bind(sel, cat)
			if err != nil {
				t.Fatalf("bind %q: %v", sql, err)
			}
			opt := NewOptimizer(cat)
			opt.Strategy, opt.Search, opt.Health = strategy, search, health
			plan, err := opt.Plan(q)
			if err != nil {
				t.Fatalf("plan %q [%s/%s]: %v", sql, strategy, search, err)
			}
			data, err := EncodePlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== %s/%s\n%s\nest CVDA=%d CVDT=%d selonly=%d\n",
				strategy, search, data, plan.Est.CVDA, plan.Est.CVDT, plan.Est.CVDTSelOnly)
		}
	}
	return b.String()
}

func checkPlanGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "plans", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("plans diverge from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestPlanCorpusGolden(t *testing.T) {
	byName := map[string]string{}
	for _, c := range corpusQueries {
		byName[c.name] = c.sql
		t.Run(c.name, func(t *testing.T) {
			checkPlanGolden(t, c.name, corpusEntry(t, corpusCatalog(t, false), nil, c.sql))
		})
	}
	for _, c := range partitionedQueries {
		t.Run("partitioned_"+c.name, func(t *testing.T) {
			checkPlanGolden(t, "partitioned_"+c.name, corpusEntry(t, corpusCatalog(t, true), nil, c.sql))
		})
	}
	for _, name := range degradedQueries {
		t.Run("degraded_"+name, func(t *testing.T) {
			checkPlanGolden(t, "degraded_"+name,
				corpusEntry(t, corpusCatalog(t, false), siteDown("site2"), byName[name]))
		})
	}
}
