package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mocha/pkg/mocha"
)

// answer is a result in comparable form: one FNV-64a digest per row of
// its wire encoding, sorted unless the query orders its output.
type answer []uint64

func newAnswer(rows []mocha.Tuple, ordered bool) answer {
	out := make(answer, len(rows))
	var buf []byte
	for i, r := range rows {
		buf = r.AppendTo(buf[:0])
		h := fnv.New64a()
		h.Write(buf)
		out[i] = h.Sum64()
	}
	if !ordered {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return out
}

// sample is one query the closed loop issued.
type sample struct {
	query    int
	at       time.Duration // completion, from the window start
	latMS    float64
	stats    mocha.QueryStats
	err      error
	rejected bool
	wrong    bool
}

// loopConfig drives one closed-loop window.
type loopConfig struct {
	dep     *deployment
	clients int
	offset  int // first mix index of client 0; client c starts c*len/clients later
	window  time.Duration
	want    []answer
	ordered []bool
	// probe, when set, runs after each correct query on the client's
	// goroutine: the traced run's isolated per-layer calls.
	probe probeFunc
}

// runLoop runs clients closed-loop over the round-robin mix until the
// window has passed: each client sends its next query only after the
// previous one's rows are drained, and stops issuing once the window
// ends. It returns every sample and the time until the last client
// finished.
func runLoop(cfg loopConfig) ([]sample, time.Duration) {
	mix := cfg.dep.mix
	var (
		mu  sync.Mutex
		all []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(cfg.window)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("client-%d", c)
			var mine []sample
			defer func() {
				mu.Lock()
				all = append(all, mine...)
				mu.Unlock()
			}()
			cl, err := cfg.dep.cluster.ConnectTenant(tenant)
			if err != nil {
				mine = append(mine, sample{query: -1, err: err})
				return
			}
			defer func() { cl.Close() }()
			qi := (cfg.offset + c*len(mix)/cfg.clients) % len(mix)
			for time.Now().Before(deadline) {
				s, rows, schema := issue(cl, mix[qi])
				s.query = qi
				s.at = time.Since(start)
				if s.err == nil {
					s.wrong = !slices.Equal(newAnswer(rows, cfg.ordered[qi]), cfg.want[qi])
					if s.wrong {
						logf("client %d: query %d returned a wrong result (%d rows)", c, qi, len(rows))
					} else if cfg.probe != nil {
						cfg.probe(c, qi, rows, schema, s.stats, s.latMS)
					}
				} else {
					logf("client %d: query %d: %v", c, qi, s.err)
					// The session may be mid-stream: reconnect.
					cl.Close()
					if cl, err = cfg.dep.cluster.ConnectTenant(tenant); err != nil {
						mine = append(mine, s, sample{query: -1, err: err})
						return
					}
				}
				mine = append(mine, s)
				qi = (qi + 1) % len(mix)
			}
		}(c)
	}
	wg.Wait()
	return all, time.Since(start)
}

// issue runs one query over the wire client and drains its rows; the
// latency spans Client.Query to the last row, admission wait and
// result delivery included.
func issue(cl *mocha.Client, sql string) (sample, []mocha.Tuple, mocha.Schema) {
	t0 := time.Now()
	rows, err := cl.Query(sql)
	if err != nil {
		return failedSample(err), nil, mocha.Schema{}
	}
	tups, err := rows.All()
	lat := time.Since(t0)
	if err != nil {
		return failedSample(err), nil, mocha.Schema{}
	}
	st, err := rows.Stats()
	if err != nil {
		return failedSample(err), nil, mocha.Schema{}
	}
	return sample{latMS: float64(lat.Nanoseconds()) / 1e6, stats: *st}, tups, rows.Schema
}

func failedSample(err error) sample {
	return sample{err: err, rejected: strings.Contains(err.Error(), "admission queue full")}
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
