package main

import (
	"context"
	"fmt"

	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/pkg/mocha"
)

// scale is the Sequoia dataset scale every workload runs at.
const scale = 0.05

// workload is one named traffic mix and the deployment it runs against.
type workload struct {
	name    string
	clients int
	// shaped runs every link, the client's included, at the paper's
	// 10 Mbps Ethernet; otherwise links are unshaped in-memory pipes.
	shaped     bool
	strategy   mocha.Strategy
	memBudget  int64
	maxConc    int
	partitions int
	// faultSite, when set, gets a fresh DropEveryNthConn plan after set-up.
	faultSite string
	faultNth  int
	// mix builds the round-robin query list. Every list has an odd length
	// so the median lands inside one query class rather than on the
	// boundary between two.
	mix func(cfg sequoia.Config, q4 string) []string
}

// The workloads. Why each listed one exists is recorded in BENCHMARK.json.
var workloads = map[string]workload{
	// The paper's regime: volume-bound on shaped links, so cut choice,
	// wire and netsim decide latency.
	"paper-10mbps": {
		clients: 1, shaped: true, strategy: mocha.StrategyAuto,
		mix: func(cfg sequoia.Config, q4 string) []string {
			return []string{
				`SELECT time, band, location FROM Rasters`,
				sequoia.Q1, sequoia.Q2(cfg), sequoia.Q3, q4, sequoia.Q5, sequoia.Q6,
			}
		},
	},
	// CPU-bound in the MVM interpreter: code-shipped, operator-heavy
	// queries whose results are small, so wire and netsim do little. It
	// runs by name but is not listed in BENCHMARK.json: on a 2-vCPU host
	// with noisy neighbours its whole-run speed tracks the host's, and
	// its p50 spread over ten seeds reached 0.23, next to the 0.25 cap
	// on a bound.
	"mvm-unshaped": {
		clients: 2, strategy: mocha.StrategyAuto, memBudget: 8 << 20, maxConc: 16,
		mix: func(cfg sequoia.Config, _ string) []string {
			return []string{
				sequoia.Q1, sequoia.Q2(cfg),
				`SELECT name, TotalLength(graph) FROM Graphs`,
				sequoia.Q5, sequoia.Q6,
			}
		},
	},
	// The opposite use of the same layers: operators run natively at the
	// QPC, raw rows cross the wire, joins and aggregates spill under a
	// 32 KiB budget, every query queues for the single admission slot,
	// and recurring connection drops keep recovery busy.
	"dataship-governed": {
		clients: 2, strategy: mocha.StrategyDataShip, memBudget: 32 << 10, maxConc: 1,
		partitions: 3, faultSite: "site2", faultNth: 7,
		mix: func(cfg sequoia.Config, _ string) []string {
			// TotalLength appears three times: with each query once, the
			// median fell in the sparse gap between the fast queries and
			// those held up by a retry backoff, and moved by a quarter
			// from run to run.
			totalLength := `SELECT name, TotalLength(graph) FROM Graphs`
			return []string{
				`SELECT time, location FROM Rasters`,
				totalLength,
				sequoia.Q1,
				`SELECT R1.time AS t1, R2.time AS t2
				 FROM Rasters1 AS R1, Rasters2 AS R2
				 WHERE R1.location = R2.location ORDER BY t1, t2 LIMIT 64`,
				totalLength,
				`SELECT R1.band AS b, Count(R2.time) AS n
				 FROM Rasters1 AS R1, Rasters2 AS R2
				 WHERE R1.location = R2.location GROUP BY R1.band ORDER BY b`,
				sequoia.Q5,
				totalLength,
				`SELECT time, band, location FROM Rasters WHERE time < 1`,
			}
		},
	},
}

// deployment is a built cluster plus the stores behind its sites, which
// the traced run scans directly.
type deployment struct {
	cluster *mocha.Cluster
	stores  map[string]*storage.Store
	mix     []string
}

func (d *deployment) Close() { d.cluster.Close() }

// seqConfig is the dataset configuration for a workload seed.
func seqConfig(seed int64) sequoia.Config {
	cfg := sequoia.Scaled(scale)
	cfg.Seed = seed
	return cfg
}

// build constructs the workload's three-site deployment from the seed:
// site1 holds Polygons, Graphs, Rasters and Rasters1, site2 Rasters2,
// site3 Rasters3. With partitions > 1, Rasters is range-partitioned on
// time across all three sites with 2-way replicas.
func build(w workload, seed int64) (*deployment, error) {
	cfg := seqConfig(seed)
	cc := mocha.ClusterConfig{
		Strategy:      w.strategy,
		Search:        mocha.CutSearchRanked,
		Exec:          mocha.Tuning{MemBudgetBytes: w.memBudget},
		MaxConcurrent: w.maxConc,
		QueueDepth:    1024,
	}
	if w.shaped {
		cc.Shaper = mocha.Ethernet10Mbps()
	}
	cl, err := mocha.NewCluster(cc)
	if err != nil {
		return nil, err
	}
	d := &deployment{cluster: cl, stores: map[string]*storage.Store{}}
	if err := d.load(cfg, w.partitions); err != nil {
		cl.Close()
		return nil, err
	}
	q4, err := calibratedQ4(d)
	if err != nil {
		cl.Close()
		return nil, err
	}
	d.mix = w.mix(cfg, q4)
	return d, nil
}

// load generates the datasets into per-site stores and registers them.
func (d *deployment) load(cfg sequoia.Config, partitions int) error {
	for _, site := range []string{"site1", "site2", "site3"} {
		st, err := mocha.NewStore()
		if err != nil {
			return err
		}
		d.stores[site] = st
	}
	s1, s2, s3 := d.stores["site1"], d.stores["site2"], d.stores["site3"]
	if err := sequoia.GenerateAll(s1, cfg); err != nil {
		return err
	}
	if err := sequoia.GenerateJoinPair(s1, s2, cfg); err != nil {
		return err
	}
	if err := sequoia.GenerateJoinThird(s3, cfg); err != nil {
		return err
	}
	for _, site := range []string{"site1", "site2", "site3"} {
		if err := d.cluster.AddSite(site, d.stores[site]); err != nil {
			return err
		}
	}
	tables := map[string][]string{
		"site1": {"Polygons", "Graphs", "Rasters", "Rasters1"},
		"site2": {"Rasters2"},
		"site3": {"Rasters3"},
	}
	for site, names := range tables {
		for _, tbl := range names {
			if tbl == "Rasters" && partitions > 1 {
				continue
			}
			if err := d.cluster.RegisterTable(site, tbl); err != nil {
				return err
			}
		}
	}
	if partitions > 1 {
		spec, err := shardRasters(d.stores, partitions)
		if err != nil {
			return err
		}
		if err := d.cluster.RegisterPartitionedTable("Rasters", spec); err != nil {
			return err
		}
	}
	return nil
}

// calibratedQ4 derives Q4's constants for a 10% joint selectivity on
// this seed's Graphs and records the marginal selectivities in the
// catalog, so Q4's shape does not depend on the seed.
func calibratedQ4(d *deployment) (string, error) {
	cals, err := sequoia.CalibrateQ4(d.stores["site1"], []float64{0.10})
	if err != nil {
		return "", err
	}
	cal := cals[0]
	d.cluster.SetSelectivity("NumVertices", "Graphs", cal.VertSelectivity)
	d.cluster.SetSelectivity("TotalLength", "Graphs", cal.LenSelectivity)
	return sequoia.Q4(cal.MaxVerts, cal.MaxLength), nil
}

// shardRasters range-partitions site1's generated Rasters on time into
// n shards, each replicated on two sites assigned round-robin.
func shardRasters(stores map[string]*storage.Store, n int) (*mocha.PartitionSpec, error) {
	sites := []string{"site1", "site2", "site3"}
	src, ok := stores["site1"].Table("Rasters")
	if !ok {
		return nil, fmt.Errorf("missing generated Rasters table")
	}
	ti := src.Schema().ColumnIndex("time")
	it, err := src.Scan()
	if err != nil {
		return nil, err
	}
	var lo, hi int64
	first := true
	for {
		tup, _, err := it.Next()
		if err != nil {
			return nil, err
		}
		if tup == nil {
			break
		}
		v := int64(tup[ti].(mocha.Int))
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	cuts := make([]int64, 0, n-1)
	for i := 1; i < n; i++ {
		cuts = append(cuts, lo+(hi-lo+1)*int64(i)/int64(n))
	}
	sets := make([][]string, n)
	for i := range sets {
		sets[i] = []string{sites[i%len(sites)], sites[(i+1)%len(sites)]}
	}
	spec := mocha.RangePlacement("Rasters", "time", cuts, sets)
	if err := mocha.SplitTable(src, spec, stores, nil, ""); err != nil {
		return nil, err
	}
	return spec, nil
}

// oracle computes every mix query once on a single-site, ungoverned,
// unpartitioned, fault-free, data-shipping cluster built from the same
// seed: the reference every timed result is compared against.
func oracle(seed int64, mix []string) ([]answer, error) {
	cfg := seqConfig(seed)
	cl, err := mocha.NewCluster(mocha.ClusterConfig{Strategy: mocha.StrategyDataShip})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	st, err := mocha.NewStore()
	if err != nil {
		return nil, err
	}
	if err := sequoia.GenerateAll(st, cfg); err != nil {
		return nil, err
	}
	if err := sequoia.GenerateJoinPair(st, st, cfg); err != nil {
		return nil, err
	}
	if err := sequoia.GenerateJoinThird(st, cfg); err != nil {
		return nil, err
	}
	if err := cl.AddSite("site1", st); err != nil {
		return nil, err
	}
	for _, tbl := range []string{"Polygons", "Graphs", "Rasters", "Rasters1", "Rasters2", "Rasters3"} {
		if err := cl.RegisterTable("site1", tbl); err != nil {
			return nil, err
		}
	}
	out := make([]answer, len(mix))
	for i, sql := range mix {
		res, err := cl.ExecuteContext(context.Background(), sql)
		if err != nil {
			return nil, fmt.Errorf("oracle query %d: %w", i, err)
		}
		out[i] = newAnswer(res.Rows, len(res.Plan.OrderBy) > 0)
	}
	return out, nil
}
