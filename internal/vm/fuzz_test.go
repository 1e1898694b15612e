package vm

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// fuzzProgram wraps arbitrary fuzzer bytes as the body of an eval
// function inside a program with a fixed const pool and a fixed aux
// helper (so OpConst and OpCall have legitimate targets to hit).
func fuzzProgram(code []byte, nargs, nglobals uint8) *Program {
	return &Program{
		Name:     "fz",
		NGlobals: int(nglobals % 4),
		Consts: []Value{
			IntVal(42),
			FloatVal(2.5),
			StrVal("mocha"),
			BytesVal([]byte{1, 2, 3, 4, 5, 6, 7, 8}),
		},
		Funcs: []Func{
			{Name: "eval", NArgs: int(nargs % 4), NLocals: 4, Code: code},
			{Name: "aux", NArgs: 1, NLocals: 0, Code: []byte{
				byte(OpArg), 0, 0, 0, 0,
				byte(OpRet),
			}},
		},
	}
}

func fuzzArgs(n int) []Value {
	vals := []Value{IntVal(7), FloatVal(1.5), StrVal("s"), BytesVal([]byte{9, 8, 7})}
	return vals[:n]
}

func sameValue(a, b Value) bool {
	if a.K != b.K {
		return false
	}
	return a.I == b.I &&
		math.Float64bits(a.F) == math.Float64bits(b.F) &&
		a.S == b.S &&
		bytes.Equal(a.B, b.B)
}

// outcome is everything one invocation makes observable.
type outcome struct {
	v       Value
	err     error
	instrs  int64 // LastRunInstrs
	fuel    int64 // FuelUsed
	globals []Value
	held    string // compiled runs: what the frame pool still references
}

// runEngine runs function fnIdx of p on a fresh machine — compiled or
// fully checked — over private copies of globals and args. The compiled
// machine's frame pool starts poisoned, as a shared machine's might be
// after earlier invocations.
func runEngine(compiled bool, p *Program, fnIdx int, limits Limits, globals, args []Value) outcome {
	m := New(limits)
	g, a := cloneValues(globals), cloneValues(args)
	var o outcome
	if compiled {
		poisonFrames(m, p.verified)
		o.v, o.err = m.runCompiled(p.verified, fnIdx, g, a)
	} else {
		o.v, o.err = m.runChecked(p, &p.Funcs[fnIdx], g, a)
	}
	o.instrs, o.fuel, o.globals = m.LastRunInstrs, m.FuelUsed, g
	if compiled {
		o.held = heldRefs(m)
	}
	return o
}

// heldRefs describes the first string or buffer a machine's frame pool
// still references between runs, or returns "".
func heldRefs(m *Machine) string {
	for d, f := range m.frames {
		for r, v := range f.v {
			if v.S != "" || v.B != nil {
				return fmt.Sprintf("frame %d register %d holds %+v", d, r, v)
			}
		}
		if f.args != nil || f.globals != nil || f.ret.S != "" || f.ret.B != nil {
			return fmt.Sprintf("frame %d holds its invocation's args, globals or result", d)
		}
	}
	return ""
}

// poisonFrames fills a machine's frame pool, one frame per call depth
// the program can reach, with register values no invocation of it has
// written, so the oracle catches compiled code that reads a register
// before writing it. The poison holds no string or buffer, as an earlier
// run's release leaves none.
func poisonFrames(m *Machine, info *VerifyInfo) {
	n := 0
	for _, fn := range info.code {
		n = max(n, fn.nregs)
	}
	for len(m.frames) <= info.CallDepth {
		f := &cframe{m: m, i: make([]int64, n), f: make([]float64, n), v: make([]Value, n)}
		for r := range f.v {
			f.i[r], f.f[r], f.v[r] = -0x5a5a, 1e300, Value{K: VFloat, I: -0x5a5a, F: 1e300}
		}
		m.frames = append(m.frames, f)
	}
}

// cloneValues copies a value slice, deep-copying writable buffers so one
// engine's stores cannot leak into the other's run.
func cloneValues(vs []Value) []Value {
	if vs == nil {
		return nil
	}
	out := make([]Value, len(vs))
	for i, v := range vs {
		if v.W {
			v.B = append([]byte(nil), v.B...)
		}
		out[i] = v
	}
	return out
}

func identical(a, b Value) bool { return sameValue(a, b) && a.W == b.W }

// outcomeDiff describes the first observable difference between two
// outcomes, or returns "".
func outcomeDiff(c, k outcome) string {
	if (c.err == nil) != (k.err == nil) {
		return fmt.Sprintf("error %v vs %v", c.err, k.err)
	}
	if c.err != nil {
		ct, ok1 := c.err.(*Trap)
		kt, ok2 := k.err.(*Trap)
		if !ok1 || !ok2 || *ct != *kt {
			return fmt.Sprintf("trap %#v vs %#v", c.err, k.err)
		}
	}
	if !identical(c.v, k.v) {
		return fmt.Sprintf("value %+v vs %+v", c.v, k.v)
	}
	if c.instrs != k.instrs {
		return fmt.Sprintf("LastRunInstrs %d vs %d", c.instrs, k.instrs)
	}
	if c.fuel != k.fuel {
		return fmt.Sprintf("FuelUsed %d vs %d", c.fuel, k.fuel)
	}
	for i := range c.globals {
		if !identical(c.globals[i], k.globals[i]) {
			return fmt.Sprintf("global %d %+v vs %+v", i, c.globals[i], k.globals[i])
		}
	}
	return ""
}

// diffEngines runs p on the checked interpreter and on its compiled
// code, failing t on any observable difference, and returns the checked
// outcome.
func diffEngines(t testing.TB, p *Program, fnIdx int, limits Limits, globals, args []Value) outcome {
	t.Helper()
	c := runEngine(false, p, fnIdx, limits, globals, args)
	k := runEngine(true, p, fnIdx, limits, globals, args)
	if d := outcomeDiff(c, k); d != "" {
		t.Fatalf("checked vs compiled at MaxFuel %d: %s\n%s", limits.MaxFuel, d, Disassemble(p))
	}
	if k.held != "" {
		t.Fatalf("compiled run at MaxFuel %d left its values in the frame pool: %s\n%s", limits.MaxFuel, k.held, Disassemble(p))
	}
	return c
}

// diffEnginesFuel runs diffEngines at the given limits and again at
// MaxFuel settings that run out part-way through the run the first one
// executed — mostly inside a basic block, where the compiled engine must
// fall back to stepping. It returns the first run's checked outcome.
func diffEnginesFuel(t testing.TB, p *Program, fnIdx int, limits Limits, globals, args []Value) outcome {
	t.Helper()
	c := diffEngines(t, p, fnIdx, limits, globals, args)
	seen := map[int64]bool{}
	for _, fuel := range []int64{1, 2, 3, c.instrs / 3, c.instrs / 2, c.instrs - 1} {
		if fuel < 1 || fuel >= c.instrs || seen[fuel] {
			continue
		}
		seen[fuel] = true
		l := limits
		l.MaxFuel = fuel
		diffEngines(t, p, fnIdx, l, globals, args)
	}
	return c
}

// blockSeedSrcs trap or run out of fuel in the middle of a basic block,
// one leaves a global written before its trap, and one loops back to its
// first instruction. They seed both fuzz targets and are committed to
// their corpora.
var blockSeedSrcs = []string{
	// divide by zero mid-block, instructions charged after it
	"program s\nfunc eval args=0 locals=0\npushi 1\npushi 2\naddi\npushi 0\ndivi\npushi 5\naddi\nret\nend",
	// bounds trap mid-block on a fresh buffer
	"program s\nfunc eval args=0 locals=1\npushi 4\nbnew\npushi 10\nldu8\npushi 1\naddi\nstore 0\nload 0\nret\nend",
	// kind trap mid-block: a float argument into addi
	"program s\nfunc eval args=2 locals=0\npushi 3\narg 1\npushi 1\naddi\naddi\nret\nend",
	// a global stored before a trap in the same block keeps its value
	"program s\nglobals 2\nfunc eval args=0 locals=0\npushi 7\ngstore 0\npushi 1\npushi 0\nmodi\ngstore 1\npushi 0\nret\nend",
	// endless loop of 6-instruction blocks: 50000 fuel ends mid-block
	"program s\nfunc eval args=0 locals=1\nloop:\npushi 1\npop\nload 0\npushi 1\naddi\nstore 0\njmp loop\nend",
	// math trap after a call returns a float through an any-kinded callee
	"program s\nconst i int 42\nconst f float 2.5\nfunc eval args=0 locals=0\nconst f\nnegf\ncall aux\nhost sqrt\nret\nend\nfunc aux args=1 locals=0\narg 0\nret\nend",
	// a back edge to pc 0 joins local 0 to any at entry: it must read as
	// int 0 however the machine's frames were left
	"program s\nglobals 1\nfunc eval args=1 locals=1\ntop:\nload 0\ngstore 0\narg 0\nstore 0\npushi 1\npushi 0\nlt\njnz top\npushi 0\nret\nend",
}

// FuzzVerifySound is the soundness oracle for the dataflow verifier and
// the compiler: any program Analyze accepts must (a) never raise a
// stack-bounds trap in the fully-checked interpreter — those faults are
// exactly what verification claims to prove impossible — and (b) behave
// identically on the checked interpreter and on its compiled code: same
// value, same trap (kind, function, pc, text), same instruction counts
// and same globals, at the roomy fuel limit and at limits that run out
// part-way through. Programs that read no dynamically-kinded inputs (no
// arg / gload) must additionally never raise a kind trap.
func FuzzVerifySound(f *testing.F) {
	seed := func(src string) {
		p := MustAssemble(src)
		f.Add(p.Funcs[0].Code, uint8(p.Funcs[0].NArgs), uint8(p.NGlobals))
	}
	seed("program s\nfunc eval args=1 locals=2\npushi 0\nstore 0\npushi 1\nstore 1\nloop:\nload 1\narg 0\ngt\njnz done\nload 0\nload 1\naddi\nstore 0\nload 1\npushi 1\naddi\nstore 1\njmp loop\ndone:\nload 0\nret\nend")
	seed("program s\nfunc eval args=0 locals=0\npushi 16\nbnew\npushi 0\npushi 8\nbslice\nblen\nret\nend")
	seed("program s\nconst f float 2.5\nfunc eval args=0 locals=0\nconst f\nhost sqrt\nhost absf\nret\nend")
	seed("program s\nglobals 2\nfunc eval args=0 locals=0\ngload 0\npushi 1\naddi\ngstore 0\ngload 1\nret\nend")
	seed("program s\nfunc eval args=1 locals=0\narg 0\ncall aux\nret\nend\nfunc aux args=1 locals=0\narg 0\nret\nend")
	seed("program s\nfunc eval args=0 locals=0\npushi 100\npushi 7\nmodi\npushi 0\neq\njz a\npushi 1\nret\na:\npushi 0\nret\nend")
	f.Add([]byte{byte(OpRet)}, uint8(0), uint8(0))
	f.Add([]byte{byte(OpConst), 0, 0, 0, 3, byte(OpBLen), byte(OpRet)}, uint8(0), uint8(0))
	for _, src := range blockSeedSrcs {
		seed(src)
	}

	f.Fuzz(func(t *testing.T, code []byte, nargs, nglobals uint8) {
		p := fuzzProgram(code, nargs, nglobals)
		if err := Verify(p); err != nil {
			return // rejection is always sound
		}
		limits := DefaultLimits
		limits.MaxFuel = 50000
		args := fuzzArgs(p.Funcs[0].NArgs)
		c := diffEnginesFuel(t, p, 0, limits, make([]Value, p.NGlobals), args)

		// Kind-exactness holds only for straight-line code with no
		// dynamically-kinded sources: arg and gload push runtime-kinded
		// values, call may return "any" (aux returns its argument), and
		// any jump can create a merge point whose join is "any". For
		// such code a kind trap is impossible; everywhere else the
		// verifier legitimately defers kind checks to runtime.
		kindExact := true
		for i := 0; i < len(code); i++ {
			op := Op(code[i])
			switch op {
			case OpArg, OpGLoad, OpCall, OpJmp, OpJz, OpJnz:
				kindExact = false
			}
			if int(op) < len(opInfo) && opInfo[op].operand {
				i += 4
			}
		}
		if tr, ok := c.err.(*Trap); ok {
			switch tr.Kind {
			case TrapStack, TrapGeneric:
				t.Fatalf("verified program raised %v trap: %v", tr.Kind, tr)
			case TrapType:
				if kindExact {
					t.Fatalf("verified straight-line program raised kind trap: %v", tr)
				}
			}
		}
	})
}
