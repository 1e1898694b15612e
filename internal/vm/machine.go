package vm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Limits bounds one MVM invocation. Together with Verify, these are the
// MVM's analogue of the Java SecurityManager policies of section 3.9.3:
// shipped code cannot touch the file system or network (no such opcodes
// exist), cannot run forever (fuel), cannot blow the stack (depth limits)
// and cannot exhaust memory (allocation budget).
type Limits struct {
	// MaxFuel is the maximum number of instructions per invocation.
	MaxFuel int64
	// MaxStack is the maximum operand stack depth.
	MaxStack int
	// MaxCallDepth is the maximum function call nesting.
	MaxCallDepth int
	// MaxAlloc is the maximum bytes allocatable via bnew per invocation.
	MaxAlloc int64
}

// DefaultLimits are generous enough for per-tuple operators over megabyte
// rasters while still bounding runaway code.
var DefaultLimits = Limits{
	MaxFuel:      4_000_000_000,
	MaxStack:     4096,
	MaxCallDepth: 64,
	MaxAlloc:     256 << 20,
}

// TrapKind classifies a runtime fault, so callers (and the soundness
// fuzzer) can distinguish faults the static verifier rules out from
// faults that are inherently dynamic.
type TrapKind uint8

const (
	// TrapGeneric is an unclassified fault.
	TrapGeneric TrapKind = iota
	// TrapStack is an operand-stack underflow or execution falling off
	// the end of a function's code. The dataflow verifier proves these
	// impossible: a verified program must never raise one.
	TrapStack
	// TrapType is a value-kind mismatch (e.g. addi on a float). The
	// verifier rejects statically provable mismatches; mismatches routed
	// through dynamically-kinded values (args, globals) remain runtime
	// faults.
	TrapType
	// TrapBounds is a byte-buffer access outside the buffer, or a store
	// into a read-only buffer — inherently data-dependent.
	TrapBounds
	// TrapMath is a numeric domain fault: divide by zero, log of a
	// non-positive, sqrt of a negative.
	TrapMath
	// TrapResource is a sandbox limit: fuel, operand-stack capacity,
	// call depth or allocation budget exhausted.
	TrapResource
)

func (k TrapKind) String() string {
	switch k {
	case TrapStack:
		return "stack"
	case TrapType:
		return "type"
	case TrapBounds:
		return "bounds"
	case TrapMath:
		return "math"
	case TrapResource:
		return "resource"
	}
	return "generic"
}

// Trap is a runtime fault raised by executing MVM code.
type Trap struct {
	Func string
	PC   int
	Kind TrapKind
	Msg  string
}

func (t *Trap) Error() string {
	return fmt.Sprintf("vm trap in %s at pc=%d: %s", t.Func, t.PC, t.Msg)
}

// Machine executes verified MVM programs. A Machine is not safe for
// concurrent use; each executor goroutine owns one.
type Machine struct {
	limits Limits
	stack  []Value
	// FuelUsed accumulates instructions executed across invocations, for
	// CPU-cost reporting. Every invocation adds its LastRunInstrs, on
	// normal return and trap alike.
	FuelUsed int64
	// LastRunInstrs is the number of instructions the most recent
	// invocation executed, counted identically by both engines and set
	// on every exit — normal return and trap alike. The bound-soundness
	// fuzz oracle (FuzzCostSound) compares it against the verifier's
	// static per-invocation budget.
	LastRunInstrs int64
	// CompiledRuns and CheckedRuns count invocations dispatched to the
	// compiled code of a verified program vs the fully-checked
	// interpreter.
	CompiledRuns int64
	CheckedRuns  int64

	// Per-invocation state shared by both engines.
	fuel      int64 // instructions left in this invocation (compiled engine)
	allocUsed int64 // bytes allocated by bnew in this invocation

	// frames is the compiled engine's activation pool, one frame per
	// call depth, reused across invocations; depth is the next free one.
	frames []*cframe
	depth  int
}

// New returns a machine with the given limits. Zero-valued limit fields
// are replaced by DefaultLimits.
func New(limits Limits) *Machine {
	if limits.MaxFuel == 0 {
		limits.MaxFuel = DefaultLimits.MaxFuel
	}
	if limits.MaxStack == 0 {
		limits.MaxStack = DefaultLimits.MaxStack
	}
	if limits.MaxCallDepth == 0 {
		limits.MaxCallDepth = DefaultLimits.MaxCallDepth
	}
	if limits.MaxAlloc == 0 {
		limits.MaxAlloc = DefaultLimits.MaxAlloc
	}
	return &Machine{limits: limits, stack: make([]Value, 0, 64)}
}

type frame struct {
	fn     *Func
	pc     int
	base   int // operand stack base for this frame
	locals []Value
	args   []Value
}

// Run executes function fnIdx of the program with the given arguments.
// globals carries aggregate state across invocations; pass nil for
// stateless scalar functions. It returns the function's result value.
//
// A program the dataflow verifier has accepted (see Analyze) whose
// static stack and call-depth bounds fit this machine's limits runs as
// the Go closures Verify compiled it to (compile.go); anything else runs
// on the fully-checked interpreter. The two engines are observably
// identical.
func (m *Machine) Run(p *Program, fnIdx int, globals []Value, args []Value) (Value, error) {
	if fnIdx < 0 || fnIdx >= len(p.Funcs) {
		return Value{}, fmt.Errorf("vm: function index %d out of range", fnIdx)
	}
	entry := &p.Funcs[fnIdx]
	if len(args) != entry.NArgs {
		return Value{}, fmt.Errorf("vm: %s.%s expects %d args, got %d", p.Name, entry.Name, entry.NArgs, len(args))
	}
	if p.NGlobals > 0 && len(globals) != p.NGlobals {
		return Value{}, fmt.Errorf("vm: %s needs %d globals, got %d", p.Name, p.NGlobals, len(globals))
	}
	if info := p.verified; info != nil &&
		info.MaxStack <= m.limits.MaxStack && info.CallDepth <= m.limits.MaxCallDepth {
		m.CompiledRuns++
		return m.runCompiled(info, fnIdx, globals, args)
	}
	m.CheckedRuns++
	return m.runChecked(p, entry, globals, args)
}

// finish records an invocation's instruction count.
func (m *Machine) finish(instrs int64) {
	m.LastRunInstrs = instrs
	m.FuelUsed += instrs
}

// runChecked is the fully-checked interpreter loop: every instruction
// validates operand-stack depth before acting, and valueOp validates
// value kinds. It is the reference semantics the compiled engine must
// match (pinned by the differential fuzz targets FuzzVerifySound and
// FuzzCostSound).
func (m *Machine) runChecked(p *Program, entry *Func, globals []Value, args []Value) (Value, error) {
	fuel := m.limits.MaxFuel
	m.allocUsed = 0
	m.stack = m.stack[:0]
	frames := make([]frame, 1, 8)
	frames[0] = frame{fn: entry, locals: make([]Value, entry.NLocals), args: args}

	trap := func(kind TrapKind, msg string) (Value, error) {
		if fuel < 0 {
			fuel = 0
		}
		m.finish(m.limits.MaxFuel - fuel)
		f := &frames[len(frames)-1]
		return Value{}, &Trap{Func: f.fn.Name, PC: f.pc, Kind: kind, Msg: msg}
	}

	push := func(v Value) bool {
		if len(m.stack) >= m.limits.MaxStack {
			return false
		}
		m.stack = append(m.stack, v)
		return true
	}

	for {
		f := &frames[len(frames)-1]
		code := f.fn.Code
		if f.pc >= len(code) {
			return trap(TrapStack, "fell off end of code")
		}
		if fuel--; fuel < 0 {
			return trap(TrapResource, "fuel exhausted")
		}
		op := Op(code[f.pc])
		var operand int
		npc := f.pc + 1
		if op.HasOperand() {
			operand = int(int32(binary.BigEndian.Uint32(code[f.pc+1:])))
			npc = f.pc + 5
		}
		sp := len(m.stack)

		switch op {
		case OpNop:

		case OpRet:
			var ret Value
			if sp > f.base {
				ret = m.stack[sp-1]
			}
			m.stack = m.stack[:f.base]
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				m.finish(m.limits.MaxFuel - fuel)
				return ret, nil
			}
			if !push(ret) {
				return trap(TrapResource, "stack overflow on return")
			}
			continue

		case OpPop:
			if sp < 1 {
				return trap(TrapStack, "pop on empty stack")
			}
			m.stack = m.stack[:sp-1]

		case OpDup:
			if sp < 1 {
				return trap(TrapStack, "dup on empty stack")
			}
			if !push(m.stack[sp-1]) {
				return trap(TrapResource, "stack overflow")
			}

		case OpSwap:
			if sp < 2 {
				return trap(TrapStack, "swap needs two values")
			}
			m.stack[sp-1], m.stack[sp-2] = m.stack[sp-2], m.stack[sp-1]

		case OpConst:
			if !push(p.Consts[operand]) {
				return trap(TrapResource, "stack overflow")
			}

		case OpPushI:
			if !push(IntVal(int64(operand))) {
				return trap(TrapResource, "stack overflow")
			}

		case OpArg:
			if !push(f.args[operand]) {
				return trap(TrapResource, "stack overflow")
			}

		case OpLoad:
			if !push(f.locals[operand]) {
				return trap(TrapResource, "stack overflow")
			}

		case OpStore:
			if sp < 1 {
				return trap(TrapStack, "store on empty stack")
			}
			f.locals[operand] = m.stack[sp-1]
			m.stack = m.stack[:sp-1]

		case OpGLoad:
			if !push(globals[operand]) {
				return trap(TrapResource, "stack overflow")
			}

		case OpGStore:
			if sp < 1 {
				return trap(TrapStack, "gstore on empty stack")
			}
			globals[operand] = m.stack[sp-1]
			m.stack = m.stack[:sp-1]

		case OpJmp:
			f.pc = operand
			continue

		case OpJz, OpJnz:
			if sp < 1 {
				return trap(TrapStack, "conditional jump on empty stack")
			}
			if m.stack[sp-1].K != VBool {
				return trap(TrapType, msgCondBool)
			}
			cond := m.stack[sp-1].Bool()
			m.stack = m.stack[:sp-1]
			if (op == OpJz && !cond) || (op == OpJnz && cond) {
				f.pc = operand
				continue
			}

		case OpCall:
			if len(frames) >= m.limits.MaxCallDepth {
				return trap(TrapResource, "call depth exceeded")
			}
			callee := &p.Funcs[operand]
			if sp < callee.NArgs {
				return trap(TrapStack, fmt.Sprintf("call to %s needs %d args, stack has %d", callee.Name, callee.NArgs, sp))
			}
			callArgs := make([]Value, callee.NArgs)
			copy(callArgs, m.stack[sp-callee.NArgs:])
			m.stack = m.stack[:sp-callee.NArgs]
			f.pc = npc
			frames = append(frames, frame{
				fn:     callee,
				base:   len(m.stack),
				locals: make([]Value, callee.NLocals),
				args:   callArgs,
			})
			continue

		default:
			n := arity(op, operand)
			if sp < n {
				return trap(TrapStack, fmt.Sprintf("%v needs %d values, stack has %d", op, n, sp))
			}
			var in [3]*Value
			for j := range in[:n] {
				in[j] = &m.stack[sp-n+j]
			}
			v, kind, msg := m.valueOp(op, operand, in[0], in[1], in[2])
			if msg != "" {
				return trap(kind, msg)
			}
			m.stack = m.stack[:sp-n+1]
			m.stack[sp-n] = v
		}
		f.pc = npc
	}
}

// msgCondBool is the trap message of a conditional jump on a non-bool.
const msgCondBool = "conditional jump needs a bool"

// arity is the number of operands a value instruction (one valueOp
// implements) pops; it is 0 for every other opcode.
func arity(op Op, operand int) int {
	switch op {
	case OpNegI, OpNegF, OpI2F, OpF2I, OpNot, OpBLen, OpBNew, OpSLen:
		return 1
	case OpAddI, OpSubI, OpMulI, OpDivI, OpModI, OpAddF, OpSubF, OpMulF, OpDivF,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr,
		OpLdU8, OpLdI32, OpLdF32, OpLdF64:
		return 2
	case OpStU8, OpStI32, OpStF32, OpBSlice:
		return 3
	case OpHost:
		if operand == HostPow {
			return 2
		}
		return 1
	}
	return 0
}

// resultKind is the abstract kind of the value a value instruction
// pushes; every value instruction pushes exactly one.
func resultKind(op Op, operand int) absKind {
	switch op {
	case OpAddF, OpSubF, OpMulF, OpDivF, OpNegF, OpI2F, OpLdF32, OpLdF64:
		return akFloat
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr, OpNot:
		return akBool
	case OpBNew, OpStU8, OpStI32, OpStF32, OpBSlice:
		return akBytes
	case OpHost:
		_, _, ret := hostSig(operand)
		return ret
	}
	return akInt
}

// valueOp applies a value instruction — arithmetic, comparison, logic,
// byte-buffer or host intrinsic — to its operands a (deepest), b and c;
// operands past the instruction's arity are nil. It returns the pushed
// value, or a trap kind and a non-empty message. Both engines execute
// value instructions through it (the compiled engine on any-kinded
// operands and on every failure), so results, trap kinds and trap text
// agree by construction. A stored-into buffer is returned as the result
// of a byte store.
func (m *Machine) valueOp(op Op, operand int, a, b, c *Value) (Value, TrapKind, string) {
	switch op {
	case OpAddI, OpSubI, OpMulI, OpDivI, OpModI:
		if a.K != VInt || b.K != VInt {
			return Value{}, TrapType, fmt.Sprintf("%v needs ints, got %v and %v", op, a.K, b.K)
		}
		switch op {
		case OpAddI:
			return IntVal(a.I + b.I), 0, ""
		case OpSubI:
			return IntVal(a.I - b.I), 0, ""
		case OpMulI:
			return IntVal(a.I * b.I), 0, ""
		case OpDivI:
			if b.I == 0 {
				return Value{}, TrapMath, "integer divide by zero"
			}
			return IntVal(a.I / b.I), 0, ""
		}
		if b.I == 0 {
			return Value{}, TrapMath, "integer modulo by zero"
		}
		return IntVal(a.I % b.I), 0, ""

	case OpNegI:
		if a.K != VInt {
			return Value{}, TrapType, "negi needs an int"
		}
		return IntVal(-a.I), 0, ""

	case OpAddF, OpSubF, OpMulF, OpDivF:
		if a.K != VFloat || b.K != VFloat {
			return Value{}, TrapType, fmt.Sprintf("%v needs floats, got %v and %v", op, a.K, b.K)
		}
		switch op {
		case OpAddF:
			return FloatVal(a.F + b.F), 0, ""
		case OpSubF:
			return FloatVal(a.F - b.F), 0, ""
		case OpMulF:
			return FloatVal(a.F * b.F), 0, ""
		}
		return FloatVal(a.F / b.F), 0, ""

	case OpNegF:
		if a.K != VFloat {
			return Value{}, TrapType, "negf needs a float"
		}
		return FloatVal(-a.F), 0, ""

	case OpI2F:
		if a.K != VInt {
			return Value{}, TrapType, "i2f needs an int"
		}
		return FloatVal(float64(a.I)), 0, ""

	case OpF2I:
		if a.K != VFloat {
			return Value{}, TrapType, "f2i needs a float"
		}
		return IntVal(int64(a.F)), 0, ""

	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		res, err := compare(op, a, b)
		if err != nil {
			return Value{}, TrapType, err.Error()
		}
		return BoolVal(res), 0, ""

	case OpAnd, OpOr:
		if a.K != VBool || b.K != VBool {
			return Value{}, TrapType, "logic op needs bools"
		}
		if op == OpAnd {
			return BoolVal(a.Bool() && b.Bool()), 0, ""
		}
		return BoolVal(a.Bool() || b.Bool()), 0, ""

	case OpNot:
		if a.K != VBool {
			return Value{}, TrapType, "not needs a bool"
		}
		return BoolVal(!a.Bool()), 0, ""

	case OpBLen:
		if a.K != VBytes {
			return Value{}, TrapType, "blen needs bytes"
		}
		return IntVal(int64(len(a.B))), 0, ""

	case OpLdU8, OpLdI32, OpLdF32, OpLdF64:
		if a.K != VBytes || b.K != VInt {
			return Value{}, TrapType, "byte load needs (bytes, int)"
		}
		width := loadWidth(op)
		buf, off := a.B, b.I
		if off < 0 || off > int64(len(buf))-width {
			return Value{}, TrapBounds, fmt.Sprintf("byte load at %d width %d out of bounds (%d)", off, width, len(buf))
		}
		switch op {
		case OpLdU8:
			return IntVal(int64(buf[off])), 0, ""
		case OpLdI32:
			return IntVal(int64(int32(binary.BigEndian.Uint32(buf[off:])))), 0, ""
		case OpLdF32:
			return FloatVal(float64(math.Float32frombits(binary.BigEndian.Uint32(buf[off:])))), 0, ""
		}
		return FloatVal(math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))), 0, ""

	case OpBNew:
		if a.K != VInt {
			return Value{}, TrapType, "bnew needs an int size"
		}
		size := a.I
		if size < 0 {
			return Value{}, TrapBounds, "bnew with negative size"
		}
		if size > m.limits.MaxAlloc-m.allocUsed {
			return Value{}, TrapResource, "allocation budget exhausted"
		}
		m.allocUsed += size
		return Value{K: VBytes, W: true, B: make([]byte, size)}, 0, ""

	case OpStU8, OpStI32, OpStF32:
		if a.K != VBytes || b.K != VInt {
			return Value{}, TrapType, "byte store needs (bytes, int, value)"
		}
		if !a.W {
			return Value{}, TrapBounds, "store into read-only buffer"
		}
		var width int64 = 4
		if op == OpStU8 {
			width = 1
		}
		buf, off := a.B, b.I
		if off < 0 || off > int64(len(buf))-width {
			return Value{}, TrapBounds, fmt.Sprintf("byte store at %d out of bounds (%d)", off, len(buf))
		}
		switch op {
		case OpStU8:
			if c.K != VInt {
				return Value{}, TrapType, "stu8 needs an int value"
			}
			buf[off] = byte(c.I)
		case OpStI32:
			if c.K != VInt {
				return Value{}, TrapType, "sti32 needs an int value"
			}
			binary.BigEndian.PutUint32(buf[off:], uint32(int32(c.I)))
		case OpStF32:
			if c.K != VFloat {
				return Value{}, TrapType, "stf32 needs a float value"
			}
			binary.BigEndian.PutUint32(buf[off:], math.Float32bits(float32(c.F)))
		}
		return *a, 0, ""

	case OpBSlice:
		if a.K != VBytes || b.K != VInt || c.K != VInt {
			return Value{}, TrapType, "bslice needs (bytes, int, int)"
		}
		start, end := b.I, c.I
		if start < 0 || end < start || end > int64(len(a.B)) {
			return Value{}, TrapBounds, fmt.Sprintf("bslice [%d:%d] out of bounds (%d)", start, end, len(a.B))
		}
		return Value{K: VBytes, W: a.W, B: a.B[start:end]}, 0, ""

	case OpSLen:
		if a.K != VStr {
			return Value{}, TrapType, "slen needs a string"
		}
		return IntVal(int64(len(a.S))), 0, ""

	case OpHost:
		return callHost(operand, a, b)
	}
	return Value{}, TrapGeneric, fmt.Sprintf("unimplemented opcode %v", op)
}

// loadWidth is the byte width a load instruction reads.
func loadWidth(op Op) int64 {
	switch op {
	case OpLdU8:
		return 1
	case OpLdF64:
		return 8
	}
	return 4
}

func compare(op Op, a, b *Value) (bool, error) {
	if a.K != b.K {
		return false, fmt.Errorf("comparison of %v and %v", a.K, b.K)
	}
	var c int // -1, 0, 1
	switch a.K {
	case VInt, VBool:
		switch {
		case a.I < b.I:
			c = -1
		case a.I > b.I:
			c = 1
		}
	case VFloat:
		switch {
		case a.F < b.F:
			c = -1
		case a.F > b.F:
			c = 1
		case a.F != b.F: // NaN involved: only Ne holds
			return op == OpNe, nil
		}
	case VStr:
		switch {
		case a.S < b.S:
			c = -1
		case a.S > b.S:
			c = 1
		}
	case VBytes:
		if op != OpEq && op != OpNe {
			return false, fmt.Errorf("bytes support only eq/ne")
		}
		eq := string(a.B) == string(b.B)
		return (op == OpEq) == eq, nil
	}
	switch op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("bad comparison op %v", op)
}

// callHost applies host intrinsic id to x (and y, for pow).
func callHost(id int, x, y *Value) (Value, TrapKind, string) {
	switch id {
	case HostAbsI:
		if x.K != VInt {
			return Value{}, TrapType, "absi needs an int"
		}
		if x.I < 0 {
			return IntVal(-x.I), 0, ""
		}
		return IntVal(x.I), 0, ""
	case HostPow:
		if x.K != VFloat || y.K != VFloat {
			return Value{}, TrapType, "pow needs two floats"
		}
		return FloatVal(math.Pow(x.F, y.F)), 0, ""
	}
	if id < 0 || id >= NumHost {
		return Value{}, TrapGeneric, fmt.Sprintf("unknown host intrinsic %d", id)
	}
	if x.K != VFloat {
		return Value{}, TrapType, HostName(id) + " needs a float"
	}
	switch id {
	case HostSqrt:
		if x.F < 0 {
			return Value{}, TrapMath, fmt.Sprintf("sqrt of negative %g", x.F)
		}
		return FloatVal(math.Sqrt(x.F)), 0, ""
	case HostAbsF:
		return FloatVal(math.Abs(x.F)), 0, ""
	case HostFloor:
		return FloatVal(math.Floor(x.F)), 0, ""
	case HostCeil:
		return FloatVal(math.Ceil(x.F)), 0, ""
	case HostLog:
		if x.F <= 0 {
			return Value{}, TrapMath, fmt.Sprintf("log of non-positive %g", x.F)
		}
		return FloatVal(math.Log(x.F)), 0, ""
	}
	return FloatVal(math.Exp(x.F)), 0, ""
}
