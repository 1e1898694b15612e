package ops

import (
	"bytes"
	"math"
	"testing"

	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// sequoiaObjects generates a small Sequoia dataset and returns its
// objects by kind, plus doubles and ints an operator may take.
func sequoiaObjects(t *testing.T) map[types.Kind][]types.Object {
	t.Helper()
	store, err := storage.OpenStore("", 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sequoia.TestScale()
	if err := sequoia.GenerateAll(store, cfg); err != nil {
		t.Fatal(err)
	}
	pool := map[types.Kind][]types.Object{}
	for _, name := range []string{"Polygons", "Graphs", "Rasters"} {
		tbl, ok := store.Table(name)
		if !ok {
			t.Fatalf("no %s table", name)
		}
		it, err := tbl.Scan()
		if err != nil {
			t.Fatal(err)
		}
		for {
			tup, _, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tup == nil {
				break
			}
			for _, o := range tup {
				pool[o.Kind()] = append(pool[o.Kind()], o)
			}
		}
	}
	for _, p := range pool[types.KindPolygon] {
		pool[types.KindDouble] = append(pool[types.KindDouble], types.Double(p.(types.Polygon).Area()))
	}
	pool[types.KindDouble] = append(pool[types.KindDouble], types.Double(0), types.Double(-1.5), types.Double(math.Inf(1)))
	pool[types.KindInt] = append(pool[types.KindInt], types.Int(0), types.Int(1), types.Int(2), types.Int(-3))
	return pool
}

// sameVM reports whether two VM values are bit-identical.
func sameVM(a, b vm.Value) bool {
	return a.K == b.K && a.W == b.W && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F) && bytes.Equal(a.B, b.B)
}

// TestCompiledBuiltins runs every program of the operator library on its
// compiled code and on the fully-checked interpreter (the program
// re-decoded, hence unverified), over objects of a generated Sequoia
// dataset, and requires identical results, errors, globals and
// instruction counts on every call.
func TestCompiledBuiltins(t *testing.T) {
	pool := sequoiaObjects(t)
	reg := Builtins()
	for _, name := range reg.Names() {
		d, _ := reg.Lookup(name)
		t.Run(name, func(t *testing.T) {
			compiled := d.Program()
			checked, err := vm.Decode(compiled.Encode())
			if err != nil {
				t.Fatal(err)
			}
			mk, mc := vm.New(vm.Limits{}), vm.New(vm.Limits{})
			gk, gc := make([]vm.Value, compiled.NGlobals), make([]vm.Value, compiled.NGlobals)
			run := func(fn string, args []vm.Value) {
				t.Helper()
				idx := compiled.FuncIndex(fn)
				vk, errK := mk.Run(compiled, idx, gk, args)
				vc, errC := mc.Run(checked, idx, gc, args)
				if (errK == nil) != (errC == nil) || (errK != nil && errK.Error() != errC.Error()) {
					t.Fatalf("%s: errors differ: compiled %v, checked %v", fn, errK, errC)
				}
				if !sameVM(vk, vc) {
					t.Fatalf("%s: results differ: compiled %v, checked %v", fn, vk, vc)
				}
				if mk.LastRunInstrs != mc.LastRunInstrs {
					t.Fatalf("%s: instruction counts differ: compiled %d, checked %d", fn, mk.LastRunInstrs, mc.LastRunInstrs)
				}
				for i := range gk {
					if !sameVM(gk[i], gc[i]) {
						t.Fatalf("%s: global %d differs: compiled %v, checked %v", fn, i, gk[i], gc[i])
					}
				}
			}
			if d.Aggregate {
				run("reset", nil)
			}
			for i := 0; i < 12; i++ {
				args := make([]vm.Value, len(d.Args))
				for j, k := range d.Args {
					objs := pool[k]
					if len(objs) == 0 {
						t.Fatalf("no generated %v objects", k)
					}
					args[j] = ToVM(objs[(i*7+j*3)%len(objs)])
				}
				if d.Aggregate {
					run("update", args)
				} else {
					run("eval", args)
				}
			}
			if d.Aggregate {
				run("summarize", nil)
			}
			if mk.CompiledRuns == 0 || mk.CheckedRuns != 0 || mc.CheckedRuns == 0 || mc.CompiledRuns != 0 {
				t.Fatalf("dispatch: compiled machine %d/%d, checked machine %d/%d",
					mk.CompiledRuns, mk.CheckedRuns, mc.CompiledRuns, mc.CheckedRuns)
			}
			if mk.FuelUsed != mc.FuelUsed {
				t.Fatalf("FuelUsed differs: compiled %d, checked %d", mk.FuelUsed, mc.FuelUsed)
			}
		})
	}
}

// TestAllocsVMOperators pins the per-row allocations of shipped
// operators on the compiled path: a scalar call allocates only the boxed
// result object (as the native operator does), an aggregate update
// nothing.
func TestAllocsVMOperators(t *testing.T) {
	raster := types.NewRaster(64, 64, make([]byte, 64*64))
	avg := builtin(t, "AvgEnergy")
	s, err := NewVMScalar(vm.New(vm.Limits{}), avg.Program(), avg.Ret)
	if err != nil {
		t.Fatal(err)
	}
	args := []types.Object{raster}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := s.Call(args); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("AvgEnergy Scalar.Call: %v allocations per call, want <= 1", n)
	}

	sum := builtin(t, "Sum")
	a, err := NewVMAggregate(vm.New(vm.Limits{}), sum.Program(), sum.Ret)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Reset(); err != nil {
		t.Fatal(err)
	}
	row := []types.Object{types.Double(2.5)}
	if n := testing.AllocsPerRun(50, func() {
		if err := a.Update(row); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Sum Aggregate.Update: %v allocations per row, want 0", n)
	}
}
