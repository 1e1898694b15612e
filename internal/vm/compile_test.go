package vm

import (
	"math"
	"strings"
	"testing"
)

// TestFuelUsedCountsTrappedRuns pins that FuelUsed adds every
// invocation's LastRunInstrs, trapped ones included, on both engines: a
// bounds trap after 3 instructions adds exactly 3.
func TestFuelUsedCountsTrappedRuns(t *testing.T) {
	p := MustAssemble(`
program p
func eval args=1 locals=0
  arg 0
  pushi 100
  ldu8
  ret
end`)
	unverified, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *Program
	}{{"compiled", p}, {"checked", unverified}} {
		t.Run(c.name, func(t *testing.T) {
			m := New(Limits{})
			short := []Value{BytesVal([]byte{1, 2, 3})}
			if _, err := m.Run(c.p, 0, nil, short); err == nil || err.(*Trap).Kind != TrapBounds {
				t.Fatalf("want bounds trap, got %v", err)
			}
			if m.LastRunInstrs != 3 || m.FuelUsed != 3 {
				t.Fatalf("after trap: LastRunInstrs %d, FuelUsed %d, want 3 and 3", m.LastRunInstrs, m.FuelUsed)
			}
			long := []Value{BytesVal(make([]byte, 101))}
			if _, err := m.Run(c.p, 0, nil, long); err != nil {
				t.Fatal(err)
			}
			if m.FuelUsed != 7 {
				t.Fatalf("after trap and return: FuelUsed %d, want 7", m.FuelUsed)
			}
			if m.CompiledRuns+m.CheckedRuns != 2 || (c.p == p) != (m.CompiledRuns == 2) {
				t.Fatalf("dispatch: compiled %d, checked %d", m.CompiledRuns, m.CheckedRuns)
			}
		})
	}
}

// TestCompiledFuelStepping runs a counting loop at every fuel limit
// from 1 to the run's full length, so fuel runs out at every position
// inside every block, and requires the compiled engine to match the
// checked one exactly each time.
func TestCompiledFuelStepping(t *testing.T) {
	p := MustAssemble(countingLoop(4))
	full := diffEngines(t, p, 0, DefaultLimits, nil, nil)
	for fuel := int64(1); fuel <= full.instrs; fuel++ {
		l := DefaultLimits
		l.MaxFuel = fuel
		c := diffEngines(t, p, 0, l, nil, nil)
		if fuel < full.instrs && (c.err == nil || !strings.Contains(c.err.Error(), "fuel exhausted")) {
			t.Fatalf("MaxFuel %d: want fuel trap, got %v", fuel, c.err)
		}
	}
}

// TestCompiledKindsAtMerges drives values whose kinds join to any at a
// merge point through every register file: an int and a float local
// meet a string, the stack carries an argument across a branch (a
// non-bool one traps at the jump), and a callee returns an int or a
// float.
func TestCompiledKindsAtMerges(t *testing.T) {
	p := MustAssemble(`
program p
const s str "x"
const h float 0.5
func pick args=1 locals=0
  arg 0
  jz f
  pushi 3
  ret
f:
  const h
  ret
end
func eval args=1 locals=2
  pushi 7
  store 0
  const h
  store 1
  arg 0
  dup
  jz skip
  const s
  store 0
  const s
  store 1
skip:
  pushi 1
  swap
  call pick
  load 0
  load 1
  swap
  pop
  swap
  pop
  ret
end`)
	for _, a := range []Value{BoolVal(true), BoolVal(false), IntVal(1)} {
		diffEngines(t, p, p.FuncIndex("eval"), DefaultLimits, nil, []Value{a})
	}
}

// TestCompiledTrapsInsideBlocks pins trap position and instruction
// counts for faults raised by specialized (not generic) compiled code
// in the middle of a block.
func TestCompiledTrapsInsideBlocks(t *testing.T) {
	cases := []struct {
		src  string
		args []Value
	}{
		{"program p\nfunc eval args=1 locals=1\npushi 2\nbnew\nstore 0\nload 0\npushi 0\narg 0\nstu8\npop\nload 0\npushi 5\narg 0\nstu8\nblen\nret\nend", []Value{IntVal(9)}},
		{"program p\nfunc eval args=2 locals=0\narg 0\narg 1\nldi32\npushi 1\naddi\nret\nend", []Value{BytesVal([]byte{1, 2, 3, 4, 5}), IntVal(2)}},
		{"program p\nfunc eval args=1 locals=0\npushi 8\nbnew\npushi 2\nldf64\nret\nend", []Value{IntVal(0)}},
		{"program p\nfunc eval args=1 locals=1\narg 0\nstore 0\npushi 10\nload 0\ndivi\npushi 1\naddi\nret\nend", []Value{IntVal(0)}},
		{"program p\nfunc eval args=1 locals=0\npushi 10\npushi 0\ndivi\narg 0\nret\nend", []Value{IntVal(0)}},
		{"program p\nfunc eval args=1 locals=0\narg 0\npushi 1\nlt\npushi 2\npushi 0\nmodi\npop\nret\nend", []Value{FloatVal(1)}},
		{"program p\nfunc eval args=1 locals=0\narg 0\nblen\npushi 1\naddi\nret\nend", []Value{StrVal("no")}},
	}
	for _, c := range cases {
		p := MustAssemble(c.src)
		if o := diffEngines(t, p, 0, DefaultLimits, nil, c.args); o.err == nil {
			t.Errorf("want a trap from\n%s", c.src)
		}
	}
}

// leakSrc's leak loops back to its first instruction, so local 0 is
// any-kinded on entry: every invocation must see it as int 0, never the
// value an earlier invocation stored, and eval calls leak twice in one
// run.
const leakSrc = `
program p
globals 1
func leak args=2 locals=1
top:
  load 0
  gstore 0
  arg 0
  store 0
  arg 1
  jnz top
  pushi 0
  ret
end
func eval args=1 locals=0
  arg 0
  pushi 1
  pushi 0
  lt
  call leak
  pop
  pushi 0
  pushi 1
  pushi 0
  lt
  call leak
  ret
end`

// TestCompiledReusedMachine runs a sequence of invocations on one
// machine per engine, as Scalar and Aggregate do for every row, and
// requires identical outcomes: a pooled frame shows an invocation
// nothing an earlier one (or an earlier call in the same run) left.
// Between invocations the pool holds no references to their values.
func TestCompiledReusedMachine(t *testing.T) {
	p := MustAssemble(leakSrc)
	leak, eval := p.FuncIndex("leak"), p.FuncIndex("eval")
	compiled, checked := New(Limits{}), New(Limits{})
	run := func(m *Machine, engine bool, fn int, args []Value) outcome {
		g := []Value{IntVal(-1)}
		var o outcome
		if engine {
			o.v, o.err = m.Run(p, fn, g, args)
		} else {
			o.v, o.err = m.runChecked(p, &p.Funcs[fn], g, args)
		}
		o.instrs, o.fuel, o.globals = m.LastRunInstrs, m.FuelUsed, g
		return o
	}
	for _, a := range []Value{StrVal("row payload"), BytesVal([]byte{7, 7}), IntVal(5), FloatVal(2.5), StrVal("x")} {
		for _, c := range []struct {
			fn   int
			args []Value
		}{{eval, []Value{a}}, {leak, []Value{a, BoolVal(false)}}, {leak, []Value{a, IntVal(3)}}} {
			k, ch := run(compiled, true, c.fn, c.args), run(checked, false, c.fn, c.args)
			if d := outcomeDiff(ch, k); d != "" {
				t.Fatalf("%s(%+v): checked vs compiled: %s", p.Funcs[c.fn].Name, c.args, d)
			}
			if h := heldRefs(compiled); h != "" {
				t.Fatalf("%s(%+v): %s", p.Funcs[c.fn].Name, c.args, h)
			}
		}
	}
	if compiled.CheckedRuns != 0 {
		t.Fatalf("%d runs took the checked interpreter", compiled.CheckedRuns)
	}
}

// TestAllocsCompiledRun pins that a compiled invocation which does not
// bnew allocates nothing: frames and registers come from the machine's
// pool, arguments and globals are read in place.
func TestAllocsCompiledRun(t *testing.T) {
	scan := MustAssemble(`
program scan
func eval args=1 locals=3
  pushi 0
  store 0
  pushi 0
  store 1
  arg 0
  blen
  store 2
loop:
  load 1
  load 2
  ge
  jnz done
  load 0
  arg 0
  load 1
  ldu8
  addi
  store 0
  load 1
  pushi 1
  addi
  store 1
  jmp loop
done:
  load 0
  i2f
  ret
end`)
	agg := MustAssemble(`
program sum
globals 2
func update args=1 locals=0
  gload 0
  arg 0
  addf
  gstore 0
  gload 1
  pushi 1
  addi
  gstore 1
  ret
end`)
	calls := MustAssemble(`
program calls
func inner args=2 locals=0
  arg 0
  arg 1
  addi
  ret
end
func eval args=1 locals=0
  arg 0
  pushi 2
  call inner
  ret
end`)
	m := New(Limits{})
	buf := make([]byte, 512)
	globals := []Value{FloatVal(0), IntVal(0)}
	for _, c := range []struct {
		name    string
		p       *Program
		fn      int
		globals []Value
		args    []Value
	}{
		{"scan", scan, 0, nil, []Value{BytesVal(buf)}},
		{"aggregate", agg, 0, globals, []Value{FloatVal(1.5)}},
		{"call", calls, calls.FuncIndex("eval"), nil, []Value{IntVal(40)}},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := m.Run(c.p, c.fn, c.globals, c.args); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per compiled run, want 0", c.name, allocs)
		}
	}
	if m.CheckedRuns != 0 {
		t.Fatalf("%d runs took the checked interpreter", m.CheckedRuns)
	}
}

// TestCompiledComparisons runs every comparison operator over every
// operand shape the compiler specializes — int registers and constants
// fused into branches, exact floats (NaN included), bools, strings, and
// any-kinded arguments of either runtime kind — both branching on the
// result and materializing it, against the checked interpreter.
func TestCompiledComparisons(t *testing.T) {
	type pair struct{ a, b string }
	shapes := []struct {
		name   string
		consts string
		load   func(pair) string // pushes the two operands
		args   func(pair) []Value
	}{
		{"int-regs", "", func(v pair) string {
			return "pushi " + v.a + "\nstore 0\npushi " + v.b + "\nstore 1\nload 0\nload 1\n"
		}, nil},
		{"int-reg-imm", "", func(v pair) string { return "pushi " + v.a + "\nstore 0\nload 0\npushi " + v.b + "\n" }, nil},
		{"int-trees", "", func(v pair) string { return "pushi " + v.a + "\npushi 0\naddi\npushi " + v.b + "\npushi 0\naddi\n" }, nil},
		{"float", "const x float 1.5\nconst y float 2.5\nconst n float NaN\n", func(v pair) string {
			return "const " + map[string]string{"1": "x", "2": "y", "3": "n"}[v.a] + "\nconst " + map[string]string{"1": "x", "2": "y", "3": "n"}[v.b] + "\n"
		}, nil},
		{"bool", "", func(v pair) string {
			return "pushi " + v.a + "\npushi 2\nlt\npushi " + v.b + "\npushi 2\nlt\n"
		}, nil},
		{"str", "const x str \"a\"\nconst y str \"b\"\n", func(v pair) string {
			return "const " + map[string]string{"1": "x", "2": "y", "3": "y"}[v.a] + "\nconst " + map[string]string{"1": "x", "2": "y", "3": "x"}[v.b] + "\n"
		}, nil},
		{"any-args", "", func(pair) string { return "arg 0\narg 1\n" }, func(v pair) []Value {
			return []Value{IntVal(int64(v.a[0] - '0')), FloatVal(float64(v.b[0] - '0'))}
		}},
		{"any-int-args", "", func(pair) string { return "arg 0\narg 1\n" }, func(v pair) []Value {
			return []Value{IntVal(int64(v.a[0] - '0')), IntVal(int64(v.b[0] - '0'))}
		}},
	}
	for _, sh := range shapes {
		for _, op := range []string{"eq", "ne", "lt", "le", "gt", "ge"} {
			for _, v := range []pair{{"1", "2"}, {"2", "2"}, {"3", "2"}} {
				for _, use := range []string{"jnz yes\npushi 0\nret\nyes:\npushi 1\nret\n", "jz yes\npushi 0\nret\nyes:\npushi 1\nret\n", "store 2\nload 2\nret\n"} {
					src := "program p\n" + sh.consts + "func eval args=2 locals=3\n" + sh.load(v) + op + "\n" + use + "end"
					p, err := Assemble(src)
					if err != nil {
						t.Fatalf("%s: %v", sh.name, err)
					}
					var args []Value
					if sh.args != nil {
						args = sh.args(v)
					} else {
						args = []Value{IntVal(0), IntVal(0)}
					}
					diffEngines(t, p, 0, DefaultLimits, nil, args)
				}
			}
		}
	}
}

// TestCompiledHostIntrinsics runs every host intrinsic on exact
// operands, domain faults and NaN included, against the checked
// interpreter.
func TestCompiledHostIntrinsics(t *testing.T) {
	for _, x := range []string{"-2.5", "0", "2.5", "NaN"} {
		for id := 0; id < NumHost; id++ {
			name := HostName(id)
			var body string
			switch id {
			case HostAbsI:
				body = "pushi -3\nhost absi\npushi 3\nhost absi\naddi\n"
			case HostPow:
				body = "const x\nconst x\nhost pow\n"
			default:
				body = "const x\nhost " + name + "\n"
			}
			src := "program p\nconst x float " + x + "\nfunc eval args=0 locals=0\n" + body + "pushi 1\npop\nret\nend"
			diffEngines(t, MustAssemble(src), 0, DefaultLimits, nil, nil)
		}
	}
}

// TestVerifyRejectsNonCanonicalConsts pins that verification refuses
// constants carrying fields beyond their kind, which unboxed registers
// could not reproduce, and writable constant buffers, which shipped code
// could otherwise store into.
func TestVerifyRejectsNonCanonicalConsts(t *testing.T) {
	code := []byte{byte(OpConst), 0, 0, 0, 0, byte(OpRet)}
	writable := BytesVal([]byte{1})
	writable.W = true
	for _, c := range []Value{
		{K: VInt, I: 1, F: 2},
		{K: VFloat, F: 1, S: "x"},
		{K: VStr, S: "s", B: []byte{1}},
		writable,
		{K: VKind(9)},
	} {
		p := &Program{Name: "p", Consts: []Value{c}, Funcs: []Func{{Name: "eval", Code: code}}}
		if err := Verify(p); err == nil || !strings.Contains(err.Error(), "canonical") {
			t.Errorf("const %+v: want canonical rejection, got %v", c, err)
		}
	}
	p := &Program{Name: "p", Consts: []Value{IntVal(1)}, Funcs: []Func{{Name: "eval", Code: code}}}
	if err := Verify(p); err != nil {
		t.Fatalf("canonical const rejected: %v", err)
	}
}

// TestHugeOffsetsTrap pins that offsets and sizes near the int64 limit
// trap on both engines instead of overflowing the bounds arithmetic into
// a Go runtime panic.
func TestHugeOffsetsTrap(t *testing.T) {
	const huge = math.MaxInt64 - 1
	for _, c := range []struct {
		src  string
		args []Value
		frag string
	}{
		{"program p\nfunc eval args=2 locals=0\narg 0\narg 1\nldi32\nret\nend",
			[]Value{BytesVal(make([]byte, 8)), IntVal(huge)}, "out of bounds"},
		{"program p\nfunc eval args=1 locals=1\npushi 8\nbnew\nstore 0\nload 0\narg 0\npushi 7\nsti32\nblen\nret\nend",
			[]Value{IntVal(huge)}, "out of bounds"},
		{"program p\nfunc eval args=1 locals=0\npushi 100\nbnew\npop\narg 0\nbnew\nblen\nret\nend",
			[]Value{IntVal(huge)}, "allocation budget"},
	} {
		p := MustAssemble(c.src)
		o := diffEngines(t, p, 0, DefaultLimits, nil, c.args)
		if o.err == nil || !strings.Contains(o.err.Error(), c.frag) {
			t.Errorf("want %q trap, got %v\n%s", c.frag, o.err, c.src)
		}
	}
}
