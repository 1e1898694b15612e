package core

import (
	"strings"

	"mocha/internal/catalog"
	"mocha/internal/ops"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// This file implements the paper's cost model (section 4):
//
//	Cost(Ω) = CompCost(Ω) + NetworkCost(Ω)
//
// and the Volume Reduction Factor (Definition 4.1),
//
//	VRF(Ω) = VDT / VDA,
//
// where VDT is the data volume transmitted after applying Ω and VDA the
// volume of Ω's inputs. Operators with VRF < 1 are data-reducing and are
// code-shipped to the DAP; the rest are data-inflating and evaluated at
// the QPC under data shipping.

// CostModel holds the environment constants for cost estimation.
type CostModel struct {
	// BitsPerSec is the modeled network bandwidth.
	BitsPerSec float64
	// CPUBytesPerMS is how many operator-input bytes one millisecond of
	// CPU processes at unit CPUCostPerByte.
	CPUBytesPerMS float64
	// VMOverhead multiplies CompCost for operators executed in the MVM
	// at a DAP (shipped bytecode is slower than native code; section
	// 3.9.1 discusses the Java-vs-C analogue).
	VMOverhead float64
	// DefaultGroups estimates GROUP BY output cardinality when the
	// catalog lacks distinct counts.
	DefaultGroups int64
	// InstrsPerMS is how many interpreted MVM instructions one
	// millisecond of DAP CPU executes — the rate that converts
	// verifier-derived static cost units into modeled time. Zero falls
	// back to defaultInstrsPerMS.
	InstrsPerMS float64
}

// defaultInstrsPerMS models a DAP interpreting 50M MVM instructions per
// second.
const defaultInstrsPerMS = 50_000

// simplePredCostPerByte prices a simple comparison predicate that has
// no operator class behind it. It is the only cost literal outside the
// MVM cost table and the operator catalog (enforced by the costtable
// linter).
const simplePredCostPerByte = 0.05

// DefaultCostModel mirrors the paper's testbed: a 10 Mbps link.
func DefaultCostModel() CostModel {
	return CostModel{
		BitsPerSec:    10e6,
		CPUBytesPerMS: 500_000,
		VMOverhead:    3,
		DefaultGroups: 100,
		InstrsPerMS:   defaultInstrsPerMS,
	}
}

// NetworkMS returns the modeled transfer time for a byte volume.
func (m CostModel) NetworkMS(bytes int64) float64 {
	if m.BitsPerSec <= 0 {
		return 0
	}
	return float64(bytes) * 8 / m.BitsPerSec * 1000
}

// CompMS returns the modeled compute time for processing argBytes of
// operator input at a relative per-byte cost.
func (m CostModel) CompMS(argBytes int64, costPerByte float64, inVM bool) float64 {
	ms := float64(argBytes) * costPerByte / m.CPUBytesPerMS
	if inVM {
		ms *= m.VMOverhead
	}
	return ms
}

// CompMSStatic prices invocations of a shipped operator from its
// verifier-derived static cost summary: FixedUnits per invocation plus
// PerTripUnits per argument byte (an input-dependent loop steps roughly
// once per byte of its input), at InstrsPerMS interpreted instructions
// per millisecond. VMOverhead does not apply — the units already count
// MVM instructions, so the interpretation rate is the overhead.
func (m CostModel) CompMSStatic(invocations, argBytes int64, c vm.CostInfo) float64 {
	rate := m.InstrsPerMS
	if rate <= 0 {
		rate = defaultInstrsPerMS
	}
	units := float64(c.FixedUnits) + float64(c.PerTripUnits)*float64(argBytes)
	return float64(invocations) * units / rate
}

// OpPlacement is the optimizer's per-operator analysis.
type OpPlacement struct {
	// Func is the operator name ("" for a simple predicate).
	Func string
	// ArgBytes is the average source bytes the operator consumes per
	// input tuple.
	ArgBytes int
	// ResBytes is the average bytes of its result per input tuple
	// (post-selection for predicates).
	ResBytes int
	// SF is the operator's selectivity (1 for projections/aggregates).
	SF float64
	// VRF is the volume reduction factor; < 1 ⇒ ship to the DAP.
	VRF float64
	// CompCostPerByte is the operator's relative cost (for ranking).
	CompCostPerByte float64
}

// Rank is the predicate ordering metric rank(p) = (SF−1)/CompCost from
// [HS93], used to sort predicates at their chosen site (cheap, highly
// selective predicates first).
func (p OpPlacement) Rank(m CostModel, rowBytes int64) float64 {
	cost := m.CompMS(rowBytes, p.CompCostPerByte, true)
	if cost <= 0 {
		cost = 1e-9
	}
	return (p.SF - 1) / cost
}

// stats helpers -------------------------------------------------------

// exprArgBytes estimates the average source bytes per tuple consumed by
// an expression: the summed average sizes of the distinct source columns
// it references (within one table, using that table's stats).
func exprArgBytes(e *PExpr, schema types.Schema, stats catalog.TableStats) int {
	var total int
	for _, col := range e.Columns() {
		if col < len(schema.Columns) {
			total += colAvgBytes(schema.Columns[col], stats)
		}
	}
	return total
}

// colAvgBytes returns the average size of one column, preferring catalog
// stats and falling back to the kind's fixed size.
func colAvgBytes(c types.Column, stats catalog.TableStats) int {
	if n := stats.AvgColBytes(c.Name); n > 0 {
		return n
	}
	if n := c.Kind.FixedWireSize(); n > 0 {
		return n
	}
	return 64 // variable-sized column with no stats
}

// callResultBytes estimates the result size of a call expression,
// never below 8 bytes: a shipped result always occupies wire space.
func callResultBytes(e *PExpr, reg *ops.Registry, argBytes int) int {
	n := argBytes
	if d, ok := reg.Lookup(e.Func); ok {
		n = d.EstimateResultBytes(argBytes)
	} else if w := e.Ret.FixedWireSize(); w > 0 {
		n = w
	}
	if n <= 0 {
		return 8
	}
	return n
}

// firstCall returns the first user-defined call within an expression, or
// nil for a simple expression. It identifies the predicate's dominant
// operator (the one the catalog keys selectivity by); anything that
// prices compute must use allCalls instead.
func firstCall(e *PExpr) *PExpr {
	var found *PExpr
	e.Walk(func(x *PExpr) {
		if found == nil && x.Kind == ExprCall {
			found = x
		}
	})
	return found
}

// allCalls returns every user-defined call within an expression, in
// walk order. Nested and sibling calls all execute, so cost estimation
// must price each of them — pricing only the first silently skews
// placement rank for composed expressions.
func allCalls(e *PExpr) []*PExpr {
	var out []*PExpr
	e.Walk(func(x *PExpr) {
		if x.Kind == ExprCall {
			out = append(out, x)
		}
	})
	return out
}

// predicateSelectivity estimates a predicate's selectivity: the
// catalog's per-operator estimate when the predicate contains a complex
// call, otherwise a form-based default.
func predicateSelectivity(e *PExpr, table string, cat *catalog.Catalog) float64 {
	if call := firstCall(e); call != nil {
		return cat.Selectivity(call.Func, table)
	}
	if e.Kind == ExprBinop && e.Op == "=" {
		return 0.1
	}
	return catalog.DefaultSelectivity
}

// predicatePlacement analyzes a single-table predicate. outBytes is the
// average per-tuple volume the fragment ships onward when the predicate
// runs at the DAP; argOnlyBytes is the volume of the predicate's
// argument columns that would ONLY be shipped to let the QPC evaluate it.
// This is exactly why the VRF beats bare selectivity (section 5.3): a
// 50%-selective predicate over a large graph attribute has
//
//	VRF = SF·outBytes / (outBytes + argOnlyBytes) ≪ SF.
func predicatePlacement(e *PExpr, table string, outBytes, argOnlyBytes int, cat *catalog.Catalog) OpPlacement {
	sf := predicateSelectivity(e, table, cat)
	p := OpPlacement{SF: sf, ArgBytes: outBytes + argOnlyBytes, CompCostPerByte: simplePredCostPerByte}
	if calls := allCalls(e); len(calls) > 0 {
		// The first call names the predicate (selectivity is keyed by
		// it), but every call it contains burns CPU: sum their costs.
		p.Func = calls[0].Func
		var sum float64
		for _, call := range calls {
			if d, ok := cat.Ops().Lookup(call.Func); ok {
				sum += d.CPUCostPerByte
			}
		}
		if sum > 0 {
			p.CompCostPerByte = sum
		}
	}
	p.ResBytes = int(sf * float64(outBytes))
	if in := outBytes + argOnlyBytes; in > 0 {
		p.VRF = sf * float64(outBytes) / float64(in)
	} else {
		p.VRF = sf
	}
	return p
}

// aggregatePlacement analyzes a grouped aggregation over one table: N
// input tuples collapse into G group rows.
func aggregatePlacement(aggs []AggSpec, groupKeyBytes int, schema types.Schema, stats catalog.TableStats, m CostModel, reg *ops.Registry) OpPlacement {
	n := stats.RowCount
	if n <= 0 {
		n = 1
	}
	g := m.DefaultGroups
	if g > n {
		g = n
	}
	var argBytes, resBytes int
	var names []string
	var cost float64
	for _, a := range aggs {
		for _, arg := range a.Args {
			argBytes += exprArgBytes(arg, schema, stats)
		}
		if d, ok := reg.Lookup(a.Func); ok {
			resBytes += d.EstimateResultBytes(argBytes)
			cost += d.CPUCostPerByte
		} else if w := a.Ret.FixedWireSize(); w > 0 {
			resBytes += w
		}
		names = append(names, a.Func)
	}
	p := OpPlacement{
		Func:            strings.Join(names, "+"),
		ArgBytes:        argBytes,
		SF:              1,
		CompCostPerByte: cost,
	}
	vda := float64(n) * float64(argBytes+groupKeyBytes)
	vdt := float64(g) * float64(groupKeyBytes+resBytes)
	p.ResBytes = int(vdt / float64(n))
	if vda > 0 {
		p.VRF = vdt / vda
	} else {
		p.VRF = 1
	}
	return p
}
