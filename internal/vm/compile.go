package vm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the MVM compiler. Verify translates every function of a
// program it accepts, once, into a tree of Go closures that Machine.Run
// executes instead of interpreting bytecode. The dataflow verifier's
// facts are what make the translation sound:
//
//   - Exact stack depths at every instruction turn operand-stack slots
//     into fixed frame registers: slot j of a function is register j,
//     local n is register lbase+n.
//   - Exact kinds pick each register's file: ints and bools live unboxed
//     in f.i, floats in f.f. Strings, byte buffers and "any" values
//     (arguments, globals, kinds joined at merge points) stay Values in
//     f.v, and arguments and globals are read in place, never copied.
//     Where an any-kinded value meets a typed instruction, the kind is
//     checked at the use site and fails with valueOp's trap.
//   - Within a basic block, the stack code becomes expression trees;
//     a statement (store, gstore, pop) or the block's end forces every
//     pending tree, bottom to top, which is exactly instruction order —
//     so traps and side effects happen in the same order as in the
//     checked interpreter. A comparison feeding a conditional jump fuses
//     into the branch.
//   - Calls form an acyclic graph, so a call runs the callee's compiled
//     code directly, in a frame drawn from the machine's pool.
//
// Fuel is charged once per basic block. When the fuel left is less than
// the block's length, the block runs instead as its unfused
// per-instruction closures, charging one unit each, so fuel runs out on
// exactly the instruction where the checked interpreter runs out. A trap
// inside a block reports how many of the block's instructions had not
// run, so LastRunInstrs is exact on every exit.

// regClass is the register file a value of some abstract kind lives in.
type regClass uint8

const (
	clsInt   regClass = iota // int and bool: the value's I field, unboxed
	clsFloat                 // float: the F field, unboxed
	clsVal                   // str, bytes and any: a whole Value
)

func classOf(k absKind) regClass {
	switch k {
	case akInt, akBool:
		return clsInt
	case akFloat:
		return clsFloat
	}
	return clsVal
}

// boxKind is the runtime kind of an int-class register of kind k.
func boxKind(k absKind) VKind {
	if k == akBool {
		return VBool
	}
	return VInt
}

// cframe is one activation of a compiled function. The register files
// hold nregs registers each; which file a register's current value is in
// is fixed, per instruction, by the compiler.
type cframe struct {
	m       *Machine
	i       []int64
	f       []float64
	v       []Value
	args    []Value
	globals []Value
	ret     Value
}

// cfunc is one compiled function.
type cfunc struct {
	name    string
	nlocals int
	lbase   int // register of local 0; registers below are stack slots
	nregs   int
	blocks  []cblock
	// anyLocals is set when a loop back to pc 0 makes some local
	// any-kinded on entry, so it is read from the Value file; vregs
	// bounds the Value registers that can hold a string or buffer.
	anyLocals bool
	vregs     int
}

// cblock is one compiled basic block. run and steps return the index of
// the next block, or -1 when the function returns.
type cblock struct {
	n     int64               // instructions in the block
	pcs   []int               // byte offset of each instruction
	run   func(*cframe) int   // the fused block
	steps []func(*cframe) int // one per instruction, for fuel stepping
}

// runCompiled runs function fnIdx of a verified program on its compiled
// code. A trap unwinds the closures as a panic carrying a *trapSignal,
// recovered here.
func (m *Machine) runCompiled(info *VerifyInfo, fnIdx int, globals, args []Value) (v Value, err error) {
	m.fuel = m.limits.MaxFuel
	m.allocUsed = 0
	m.depth = 0
	defer func() {
		if r := recover(); r != nil {
			ts, ok := r.(*trapSignal)
			if !ok {
				panic(r)
			}
			m.finish(m.limits.MaxFuel - m.fuel - ts.rest)
			for _, f := range m.frames[:m.depth] {
				f.release(len(f.v))
			}
			v, err = Value{}, &ts.trap
		}
	}()
	v = m.call(info.code[fnIdx], globals, args)
	m.finish(m.limits.MaxFuel - m.fuel)
	return v, nil
}

// call runs one compiled function to completion in a pooled frame.
func (m *Machine) call(fn *cfunc, globals, args []Value) Value {
	if m.depth == len(m.frames) {
		m.frames = append(m.frames, &cframe{m: m})
	}
	f := m.frames[m.depth]
	m.depth++
	if len(f.i) < fn.nregs {
		f.i = make([]int64, fn.nregs)
		f.f = make([]float64, fn.nregs)
		f.v = make([]Value, fn.nregs)
	}
	f.args, f.globals = args, globals
	// Locals start as int 0, in the Value file too (the zero Value is
	// IntVal(0)) where an any-kinded local is read from there, so no
	// value of an earlier invocation is ever seen.
	clear(f.i[fn.lbase : fn.lbase+fn.nlocals])
	if fn.anyLocals {
		clear(f.v[fn.lbase : fn.lbase+fn.nlocals])
	}
	for b := 0; b >= 0; {
		blk := &fn.blocks[b]
		if m.fuel >= blk.n {
			m.fuel -= blk.n
			b = blk.run(f)
		} else {
			b = m.step(fn, blk, f)
		}
	}
	m.depth--
	v := f.ret
	f.release(fn.vregs)
	return v
}

// release drops a frame's references to its invocation's values — the
// strings and buffers in its first n Value registers, its arguments,
// globals and result — so a pooled frame pins no row payloads between
// invocations.
func (f *cframe) release(n int) {
	clear(f.v[:n])
	f.args, f.globals, f.ret = nil, nil, Value{}
}

// step runs a block one instruction at a time, for when the fuel left
// may run out inside it.
func (m *Machine) step(fn *cfunc, blk *cblock, f *cframe) int {
	next := 0
	for k, s := range blk.steps {
		if m.fuel == 0 {
			(&site{fn: fn.name, pc: blk.pcs[k]}).raise(TrapResource, "fuel exhausted")
		}
		m.fuel--
		next = s(f)
	}
	return next
}

// site locates an instruction for its traps: rest is the number of
// instructions of the enclosing compiled range after it, charged but not
// executed when it traps.
type site struct {
	fn   string
	pc   int
	rest int64
}

// trapSignal is the panic value a trap unwinds compiled code with.
type trapSignal struct {
	trap Trap
	rest int64
}

func (s *site) raise(kind TrapKind, msg string) {
	panic(&trapSignal{trap: Trap{Func: s.fn, PC: s.pc, Kind: kind, Msg: msg}, rest: s.rest})
}

// apply runs a value instruction through valueOp, raising its trap.
func (s *site) apply(m *Machine, op Op, operand int, a, b, c *Value) Value {
	v, kind, msg := m.valueOp(op, operand, a, b, c)
	if msg != "" {
		s.raise(kind, msg)
	}
	return v
}

// fail raises the trap of a value instruction whose specialized code
// found a failing operand: valueOp re-checks the operands and names the
// fault, so specialized and generic code share one set of trap texts.
func (s *site) fail(m *Machine, op Op, operand int, a, b, c *Value) {
	s.apply(m, op, operand, a, b, c)
	panic(fmt.Sprintf("vm: compiled %v in %s at pc=%d failed where valueOp succeeds", op, s.fn, s.pc))
}

// opSrc is where a pending operand's value comes from.
type opSrc uint8

const (
	srcImm    opSrc = iota // a constant
	srcReg                 // a register
	srcArg                 // an argument, read in place
	srcGlobal              // a global, read in place
	srcTree                // a computed expression
)

// opnd is one entry of the compiler's symbolic operand stack.
type opnd struct {
	k     absKind
	src   opSrc
	local bool // a srcReg holding a local, which a later store may change
	r     int  // register, argument or global index
	imm   int64
	fimm  float64
	vimm  *Value
	ti    func(*cframe) int64
	tf    func(*cframe) float64
	tv    func(*cframe) *Value
	// pred is set on comparisons, so a branch can test them without
	// materializing a bool; bin is set on exact int arithmetic and
	// comparisons, so stores and branches can fuse common shapes.
	pred func(*cframe) bool
	bin  *binOp
}

type binOp struct {
	op   Op
	x, y opnd
}

// stable reports whether the operand's value cannot change before it is
// consumed, so statements need not force it first. A stack-slot register
// is only rewritten once the entries above it are gone.
func (o *opnd) stable() bool {
	return o.src == srcImm || o.src == srcArg || (o.src == srcReg && !o.local)
}

// leafy reports whether reading o has no effects and cannot fail, so a
// fast path that reads it can fall back to generic code that reads it
// again.
func (o *opnd) leafy() bool { return o.src != srcTree }

func constOpnd(v Value) opnd {
	k := kindOf(v.K)
	switch classOf(k) {
	case clsInt:
		return opnd{k: k, src: srcImm, imm: v.I}
	case clsFloat:
		return opnd{k: k, src: srcImm, fimm: v.F}
	}
	p := new(Value)
	*p = v
	return opnd{k: k, src: srcImm, vimm: p}
}

func (o *opnd) intFn() func(*cframe) int64 {
	switch o.src {
	case srcImm:
		c := o.imm
		return func(*cframe) int64 { return c }
	case srcReg:
		r := o.r
		return func(f *cframe) int64 { return f.i[r] }
	}
	return o.ti
}

func (o *opnd) floatFn() func(*cframe) float64 {
	switch o.src {
	case srcImm:
		c := o.fimm
		return func(*cframe) float64 { return c }
	case srcReg:
		r := o.r
		return func(f *cframe) float64 { return f.f[r] }
	}
	return o.tf
}

// valFn reads a clsVal operand in place.
func (o *opnd) valFn() func(*cframe) *Value {
	switch o.src {
	case srcImm:
		p := o.vimm
		return func(*cframe) *Value { return p }
	case srcReg:
		r := o.r
		return func(f *cframe) *Value { return &f.v[r] }
	case srcArg:
		r := o.r
		return func(f *cframe) *Value { return &f.args[r] }
	case srcGlobal:
		r := o.r
		return func(f *cframe) *Value { return &f.globals[r] }
	}
	return o.tv
}

// intNum reads an exact-int or any-kinded operand as an int, reporting
// whether it is one at run time.
func (o *opnd) intNum() func(*cframe) (int64, bool) {
	if o.k == akAny {
		p := o.valFn()
		return func(f *cframe) (int64, bool) { v := p(f); return v.I, v.K == VInt }
	}
	x := o.intFn()
	return func(f *cframe) (int64, bool) { return x(f), true }
}

// floatNum is intNum for floats.
func (o *opnd) floatNum() func(*cframe) (float64, bool) {
	if o.k == akAny {
		p := o.valFn()
		return func(f *cframe) (float64, bool) { v := p(f); return v.F, v.K == VFloat }
	}
	x := o.floatFn()
	return func(f *cframe) (float64, bool) { return x(f), true }
}

// ptrFn reads any operand as a Value. An unboxed operand at stack depth
// j is boxed into the Value register of slot j, which is free while the
// operand is being consumed.
func (o *opnd) ptrFn(j int) func(*cframe) *Value {
	switch classOf(o.k) {
	case clsInt:
		x, vk := o.intFn(), boxKind(o.k)
		return func(f *cframe) *Value {
			n := x(f)
			f.v[j] = Value{K: vk, I: n}
			return &f.v[j]
		}
	case clsFloat:
		x := o.floatFn()
		return func(f *cframe) *Value {
			n := x(f)
			f.v[j] = FloatVal(n)
			return &f.v[j]
		}
	}
	return o.valFn()
}

// evalFn evaluates an operand for its effects only.
func (o *opnd) evalFn() func(*cframe) {
	switch classOf(o.k) {
	case clsInt:
		x := o.intFn()
		return func(f *cframe) { x(f) }
	case clsFloat:
		x := o.floatFn()
		return func(f *cframe) { x(f) }
	}
	x := o.valFn()
	return func(f *cframe) { x(f) }
}

// boxMove copies register r, unboxed as kind k, into its Value register.
func boxMove(r int, k absKind) func(*cframe) {
	if classOf(k) == clsFloat {
		return func(f *cframe) { f.v[r] = FloatVal(f.f[r]) }
	}
	vk := boxKind(k)
	return func(f *cframe) { f.v[r] = Value{K: vk, I: f.i[r]} }
}

func together(fns []func(*cframe)) func(*cframe) {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	}
	return func(f *cframe) {
		for _, fn := range fns {
			fn(f)
		}
	}
}

// term ends a compiled range: fn computes the next block, or, when fn is
// nil, the next block is the constant next, entered after fix.
type term struct {
	fn   func(*cframe) int
	next int
	fix  func(*cframe)
}

// seq joins a range's statements and its terminator into one closure.
func seq(stmts []func(*cframe), t *term) func(*cframe) int {
	if t.fn == nil {
		if t.fix != nil {
			stmts = append(stmts, t.fix)
		}
		next := t.next
		switch len(stmts) {
		case 0:
			return func(*cframe) int { return next }
		case 1:
			s0 := stmts[0]
			return func(f *cframe) int { s0(f); return next }
		case 2:
			s0, s1 := stmts[0], stmts[1]
			return func(f *cframe) int { s0(f); s1(f); return next }
		}
		return func(f *cframe) int {
			for _, s := range stmts {
				s(f)
			}
			return next
		}
	}
	fn := t.fn
	switch len(stmts) {
	case 0:
		return fn
	case 1:
		s0 := stmts[0]
		return func(f *cframe) int { s0(f); return fn(f) }
	}
	return func(f *cframe) int {
		for _, s := range stmts {
			s(f)
		}
		return fn(f)
	}
}

// compileProgram compiles every function of a verified program.
func compileProgram(p *Program, instrs [][]instr, index []map[int]int, results []*funcResult) []*cfunc {
	funcs := make([]*cfunc, len(p.Funcs))
	rets := make([]absKind, len(p.Funcs))
	for i := range funcs {
		funcs[i] = &cfunc{}
		rets[i] = akAny
		if results[i].retSeen {
			rets[i] = results[i].retKind
		}
	}
	for i := range p.Funcs {
		fn := &p.Funcs[i]
		c := &fcomp{
			p: p, name: fn.Name, lbase: results[i].localPeak,
			ins: instrs[i], idx: index[i], states: results[i].states,
			rets: rets, funcs: funcs,
		}
		cf := funcs[i]
		cf.name, cf.nlocals, cf.lbase = fn.Name, fn.NLocals, c.lbase
		cf.nregs = c.lbase + fn.NLocals
		c.compile(cf)
	}
	return funcs
}

// fcomp compiles one function.
type fcomp struct {
	p       *Program
	name    string
	lbase   int
	ins     []instr
	idx     map[int]int
	states  []*absState
	rets    []absKind
	funcs   []*cfunc
	blockAt []int // instruction index → block starting there, or -1

	// Per compiled range: the symbolic stack, the kinds of the locals,
	// the statements emitted so far and the index past the range.
	stack  []opnd
	locals []absKind
	stmts  []func(*cframe)
	end    int
}

func (c *fcomp) compile(cf *cfunc) {
	n := len(c.ins)
	leader := make([]bool, n)
	leader[0] = true
	for i, in := range c.ins {
		switch in.op {
		case OpJmp, OpJz, OpJnz:
			leader[c.idx[in.operand]] = true
		}
		switch in.op {
		case OpJmp, OpJz, OpJnz, OpRet, OpCall:
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}
	c.blockAt = make([]int, n)
	var starts []int
	for i, l := range leader {
		c.blockAt[i] = -1
		if l {
			c.blockAt[i] = len(starts)
			starts = append(starts, i)
		}
	}
	for _, k := range c.states[0].locals {
		cf.anyLocals = cf.anyLocals || k == akAny
	}
	// A string or buffer only ever lands in the Value register of a
	// stack slot or local whose kind, at some instruction, is in the
	// Value class; everything else written there is a boxed number.
	for _, st := range c.states {
		for j, k := range st.stack {
			if classOf(k) == clsVal {
				cf.vregs = max(cf.vregs, j+1)
			}
		}
		for n, k := range st.locals {
			if classOf(k) == clsVal {
				cf.vregs = max(cf.vregs, c.lbase+n+1)
			}
		}
	}
	cf.blocks = make([]cblock, len(starts))
	for b, start := range starts {
		end := n
		if b+1 < len(starts) {
			end = starts[b+1]
		}
		blk := &cf.blocks[b]
		blk.n = int64(end - start)
		blk.run = c.compileRange(start, end)
		for i := start; i < end; i++ {
			blk.pcs = append(blk.pcs, c.ins[i].off)
			blk.steps = append(blk.steps, c.compileRange(i, i+1))
		}
	}
}

// compileRange compiles instructions [start, end), which lie within one
// basic block, entering with every stack entry in its own slot register
// and leaving the same way.
func (c *fcomp) compileRange(start, end int) func(*cframe) int {
	st := c.states[start]
	c.stack = c.stack[:0]
	for j, k := range st.stack {
		c.stack = append(c.stack, opnd{k: k, src: srcReg, r: j})
	}
	c.locals = append(c.locals[:0], st.locals...)
	c.stmts = nil
	c.end = end
	for i := start; i < end; i++ {
		if t := c.instr(i); t != nil {
			return seq(c.stmts, t)
		}
	}
	c.spillAll()
	if c.blockAt[end] >= 0 {
		return seq(c.stmts, c.jump(end))
	}
	return seq(c.stmts, &term{}) // a step inside a block
}

func (c *fcomp) push(o opnd) { c.stack = append(c.stack, o) }

func (c *fcomp) pop() opnd {
	o := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	return o
}

func (c *fcomp) emit(s func(*cframe)) { c.stmts = append(c.stmts, s) }

// spill forces stack entry j into its own slot register.
func (c *fcomp) spill(j int) {
	e := c.stack[j]
	if e.src == srcReg && !e.local && e.r == j {
		return
	}
	c.emitSet(j, e)
	c.stack[j] = opnd{k: e.k, src: srcReg, r: j}
}

// flush forces, bottom to top, every entry below n whose value a
// statement could change or whose evaluation has effects.
func (c *fcomp) flush(n int) {
	for j := 0; j < n; j++ {
		if !c.stack[j].stable() {
			c.spill(j)
		}
	}
}

func (c *fcomp) spillAll() {
	for j := range c.stack {
		c.spill(j)
	}
}

// emitSet emits a statement writing operand e to register r, in the
// file of e's kind.
func (c *fcomp) emitSet(r int, e opnd) {
	switch classOf(e.k) {
	case clsInt:
		if s := fusedIntSet(r, e); s != nil {
			c.emit(s)
			return
		}
		x := e.intFn()
		c.emit(func(f *cframe) { f.i[r] = x(f) })
	case clsFloat:
		if e.src == srcImm {
			k := e.fimm
			c.emit(func(f *cframe) { f.f[r] = k })
			return
		}
		x := e.floatFn()
		c.emit(func(f *cframe) { f.f[r] = x(f) })
	default:
		x := e.valFn()
		c.emit(func(f *cframe) { f.v[r] = *x(f) })
	}
}

// emitPut emits a statement writing operand e, boxed, to *dst(f).
func (c *fcomp) emitPut(e opnd, dst func(*cframe) *Value) {
	switch classOf(e.k) {
	case clsInt:
		x, vk := e.intFn(), boxKind(e.k)
		c.emit(func(f *cframe) {
			n := x(f)
			*dst(f) = Value{K: vk, I: n}
		})
	case clsFloat:
		x := e.floatFn()
		c.emit(func(f *cframe) {
			n := x(f)
			*dst(f) = FloatVal(n)
		})
	default:
		x := e.valFn()
		c.emit(func(f *cframe) {
			v := x(f)
			*dst(f) = *v
		})
	}
}

// fusedIntSet specializes the common shapes of an int register write.
func fusedIntSet(r int, e opnd) func(*cframe) {
	switch e.src {
	case srcImm:
		k := e.imm
		return func(f *cframe) { f.i[r] = k }
	case srcReg:
		s := e.r
		return func(f *cframe) { f.i[r] = f.i[s] }
	}
	b := e.bin
	if b == nil || b.x.src != srcReg {
		return nil
	}
	x := b.x.r
	switch {
	case b.op == OpAddI && b.y.src == srcImm:
		k := b.y.imm
		return func(f *cframe) { f.i[r] = f.i[x] + k }
	case b.op == OpAddI && b.y.src == srcReg:
		y := b.y.r
		return func(f *cframe) { f.i[r] = f.i[x] + f.i[y] }
	case b.op == OpAddI:
		y := b.y.intFn()
		return func(f *cframe) { f.i[r] = f.i[x] + y(f) }
	case b.op == OpSubI && b.y.src == srcImm:
		k := b.y.imm
		return func(f *cframe) { f.i[r] = f.i[x] - k }
	}
	return nil
}

// jump is the terminator entering the block at instruction ti, boxing
// any register whose kind the block's entry state has joined to any.
func (c *fcomp) jump(ti int) *term {
	want := c.states[ti]
	var fix []func(*cframe)
	for j, e := range c.stack {
		if want.stack[j] == akAny && classOf(e.k) != clsVal {
			fix = append(fix, boxMove(j, e.k))
		}
	}
	for n, k := range c.locals {
		if want.locals[n] == akAny && classOf(k) != clsVal {
			fix = append(fix, boxMove(c.lbase+n, k))
		}
	}
	return &term{next: c.blockAt[ti], fix: together(fix)}
}

// instr compiles instruction i, returning its terminator if it ends the
// range's block.
func (c *fcomp) instr(i int) *term {
	in := c.ins[i]
	s := &site{fn: c.name, pc: in.off, rest: int64(c.end - 1 - i)}
	switch in.op {
	case OpNop:

	case OpConst:
		c.push(constOpnd(c.p.Consts[in.operand]))

	case OpPushI:
		c.push(opnd{k: akInt, src: srcImm, imm: int64(in.operand)})

	case OpArg:
		c.push(opnd{k: akAny, src: srcArg, r: in.operand})

	case OpLoad:
		c.push(opnd{k: c.locals[in.operand], src: srcReg, local: true, r: c.lbase + in.operand})

	case OpStore:
		c.flush(len(c.stack) - 1)
		e := c.pop()
		c.emitSet(c.lbase+in.operand, e)
		c.locals[in.operand] = e.k

	case OpGLoad:
		c.push(opnd{k: akAny, src: srcGlobal, r: in.operand})

	case OpGStore:
		c.flush(len(c.stack) - 1)
		n := in.operand
		c.emitPut(c.pop(), func(f *cframe) *Value { return &f.globals[n] })

	case OpPop:
		c.flush(len(c.stack) - 1)
		if e := c.pop(); !e.stable() {
			c.emit(e.evalFn())
		}

	case OpDup:
		c.flush(len(c.stack))
		c.push(c.stack[len(c.stack)-1])

	case OpSwap:
		c.flush(len(c.stack))
		d := len(c.stack)
		c.spill(d - 2)
		c.spill(d - 1)
		a, b := c.stack[d-2], c.stack[d-1]
		c.emit(swapRegs(d-2, a.k, d-1, b.k))
		c.stack[d-2] = opnd{k: b.k, src: srcReg, r: d - 2}
		c.stack[d-1] = opnd{k: a.k, src: srcReg, r: d - 1}

	case OpJmp:
		c.spillAll()
		return c.jump(c.idx[in.operand])

	case OpJz, OpJnz:
		cond := c.pop()
		c.spillAll()
		return c.branch(in, cond, i, s)

	case OpCall:
		return c.call(in, i)

	case OpRet:
		if d := len(c.stack); d > 0 {
			c.flush(d - 1)
			c.emitPut(c.stack[d-1], func(f *cframe) *Value { return &f.ret })
		} else {
			c.emit(func(f *cframe) { f.ret = Value{} })
		}
		return &term{next: -1}

	default:
		n := arity(in.op, in.operand)
		d := len(c.stack) - n
		ops := append([]opnd(nil), c.stack[d:]...)
		c.stack = c.stack[:d]
		e, ok := c.exact(in, ops, d, s)
		if !ok {
			e = c.generic(in, ops, d, s)
		}
		c.push(e)
	}
	return nil
}

// swapRegs exchanges two adjacent slot registers whose kinds are ka and kb.
func swapRegs(ra int, ka absKind, rb int, kb absKind) func(*cframe) {
	get := func(r int, k absKind) func(*cframe) Value {
		switch classOf(k) {
		case clsInt:
			vk := boxKind(k)
			return func(f *cframe) Value { return Value{K: vk, I: f.i[r]} }
		case clsFloat:
			return func(f *cframe) Value { return FloatVal(f.f[r]) }
		}
		return func(f *cframe) Value { return f.v[r] }
	}
	set := func(r int, k absKind) func(*cframe, Value) {
		switch classOf(k) {
		case clsInt:
			return func(f *cframe, v Value) { f.i[r] = v.I }
		case clsFloat:
			return func(f *cframe, v Value) { f.f[r] = v.F }
		}
		return func(f *cframe, v Value) { f.v[r] = v }
	}
	ga, gb, sa, sb := get(ra, ka), get(rb, kb), set(ra, kb), set(rb, ka)
	return func(f *cframe) {
		a, b := ga(f), gb(f)
		sa(f, b)
		sb(f, a)
	}
}

// branch compiles a conditional jump on cond.
func (c *fcomp) branch(in instr, cond opnd, i int, s *site) *term {
	taken, fall := c.jump(c.idx[in.operand]), c.jump(i+1)
	yes, no := taken, fall // successors when cond is true
	if in.op == OpJz {
		yes, no = fall, taken
	}
	tn, en := yes.next, no.next
	if b := cond.bin; b != nil && yes.fix == nil && no.fix == nil {
		if fn := cmpBranch(b, tn, en); fn != nil {
			return &term{fn: fn}
		}
	}
	pred := cond.pred
	switch {
	case pred != nil:
	case classOf(cond.k) == clsInt:
		x := cond.intFn()
		pred = func(f *cframe) bool { return x(f) != 0 }
	default:
		x := cond.valFn()
		pred = func(f *cframe) bool {
			v := x(f)
			if v.K != VBool {
				s.raise(TrapType, msgCondBool)
			}
			return v.I != 0
		}
	}
	tf, ef := yes.fix, no.fix
	if tf == nil && ef == nil {
		return &term{fn: func(f *cframe) int {
			if pred(f) {
				return tn
			}
			return en
		}}
	}
	return &term{fn: func(f *cframe) int {
		if pred(f) {
			if tf != nil {
				tf(f)
			}
			return tn
		}
		if ef != nil {
			ef(f)
		}
		return en
	}}
}

// cmpBranch fuses an int comparison of a register with a register or a
// constant into the branch on it; nil for any other shape. b is a
// comparison: the verifier lets only bools reach a branch.
func cmpBranch(b *binOp, t, e int) func(*cframe) int {
	if b.x.src != srcReg {
		return nil
	}
	x, op := b.x.r, b.op
	switch b.y.src {
	case srcReg:
		y := b.y.r
		return func(f *cframe) int {
			if intCmp(op, f.i[x], f.i[y]) {
				return t
			}
			return e
		}
	case srcImm:
		k := b.y.imm
		return func(f *cframe) int {
			if intCmp(op, f.i[x], k) {
				return t
			}
			return e
		}
	}
	return nil
}

// call compiles a call: the arguments, boxed, are the callee's in place.
func (c *fcomp) call(in instr, i int) *term {
	callee := c.funcs[in.operand]
	c.spillAll()
	hi := len(c.stack)
	lo := hi - c.p.Funcs[in.operand].NArgs
	var boxes []func(*cframe)
	for j := lo; j < hi; j++ {
		if k := c.stack[j].k; classOf(k) != clsVal {
			boxes = append(boxes, boxMove(j, k))
		}
	}
	box := together(boxes)
	c.stack = c.stack[:lo]
	rk := c.rets[in.operand]
	c.push(opnd{k: rk, src: srcReg, r: lo})
	next := c.jump(i + 1)
	nb, fix, cls := next.next, next.fix, classOf(rk)
	return &term{fn: func(f *cframe) int {
		if box != nil {
			box(f)
		}
		v := f.m.call(callee, f.globals, f.v[lo:hi])
		switch cls {
		case clsInt:
			f.i[lo] = v.I
		case clsFloat:
			f.f[lo] = v.F
		default:
			f.v[lo] = v
		}
		if fix != nil {
			fix(f)
		}
		return nb
	}}
}

// generic compiles a value instruction through valueOp, reading every
// operand as a Value in place (or boxed, if unboxed).
func (c *fcomp) generic(in instr, ops []opnd, d int, s *site) opnd {
	op, operand := in.op, in.operand
	var g func(*cframe) Value
	switch len(ops) {
	case 1:
		a := ops[0].ptrFn(d)
		g = func(f *cframe) Value { return s.apply(f.m, op, operand, a(f), nil, nil) }
	case 2:
		a, b := ops[0].ptrFn(d), ops[1].ptrFn(d+1)
		g = func(f *cframe) Value {
			pa := a(f)
			return s.apply(f.m, op, operand, pa, b(f), nil)
		}
	default:
		a, b, cc := ops[0].ptrFn(d), ops[1].ptrFn(d+1), ops[2].ptrFn(d+2)
		g = func(f *cframe) Value {
			pa := a(f)
			pb := b(f)
			return s.apply(f.m, op, operand, pa, pb, cc(f))
		}
	}
	rk := resultKind(op, operand)
	switch classOf(rk) {
	case clsInt:
		return opnd{k: rk, src: srcTree, ti: func(f *cframe) int64 { return g(f).I }}
	case clsFloat:
		return opnd{k: rk, src: srcTree, tf: func(f *cframe) float64 { return g(f).F }}
	}
	return opnd{k: rk, src: srcTree, tv: func(f *cframe) *Value {
		v := g(f)
		f.v[d] = v
		return &f.v[d]
	}}
}

// exact compiles the value instructions that have specialized code for
// the operand kinds at hand; ok is false where generic code runs.
func (c *fcomp) exact(in instr, ops []opnd, d int, s *site) (e opnd, ok bool) {
	op := in.op
	switch op {
	case OpLdU8, OpLdI32, OpLdF32, OpLdF64:
		// The hot path of every raster operator: the buffer is usually
		// an argument, so its kind is checked here, in place.
		if ops[1].k != akInt {
			return opnd{}, false
		}
		return byteLoad(op, ops[0], ops[1], s), true
	case OpBLen:
		x := ops[0].valFn()
		return opnd{k: akInt, src: srcTree, ti: func(f *cframe) int64 {
			v := x(f)
			if v.K != VBytes {
				s.fail(f.m, op, 0, v, nil, nil)
			}
			return int64(len(v.B))
		}}, true
	}
	for _, o := range ops {
		if o.k == akAny {
			return c.mixed(in, ops, d, s)
		}
	}
	switch op {
	case OpAddI, OpSubI, OpMulI, OpDivI, OpModI:
		return intArith(op, ops[0], ops[1], s), true
	case OpNegI:
		x := ops[0].intFn()
		return opnd{k: akInt, src: srcTree, ti: func(f *cframe) int64 { return -x(f) }}, true
	case OpF2I:
		x := ops[0].floatFn()
		return opnd{k: akInt, src: srcTree, ti: func(f *cframe) int64 { return int64(x(f)) }}, true
	case OpI2F:
		x := ops[0].intFn()
		return opnd{k: akFloat, src: srcTree, tf: func(f *cframe) float64 { return float64(x(f)) }}, true
	case OpNegF:
		x := ops[0].floatFn()
		return opnd{k: akFloat, src: srcTree, tf: func(f *cframe) float64 { return -x(f) }}, true
	case OpAddF, OpSubF, OpMulF, OpDivF:
		return floatArith(op, ops[0], ops[1]), true
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		var pred func(*cframe) bool
		switch ops[0].k {
		case akInt, akBool:
			x, y := ops[0].intFn(), ops[1].intFn()
			pred = func(f *cframe) bool {
				a := x(f)
				return intCmp(op, a, y(f))
			}
			e.bin = &binOp{op: op, x: ops[0], y: ops[1]}
		case akFloat:
			x, y := ops[0].floatFn(), ops[1].floatFn()
			pred = func(f *cframe) bool {
				a := x(f)
				return floatCmp(op, a, y(f))
			}
		default:
			return opnd{}, false
		}
		e.k, e.src, e.pred = akBool, srcTree, pred
		e.ti = func(f *cframe) int64 { return b2i(pred(f)) }
		return e, true
	case OpNot:
		x := ops[0].intFn()
		pred := func(f *cframe) bool { return x(f) == 0 }
		return opnd{k: akBool, src: srcTree, pred: pred, ti: func(f *cframe) int64 { return b2i(pred(f)) }}, true
	case OpStU8, OpStI32, OpStF32:
		return byteStore(op, ops[0], ops[1], ops[2], s), true
	case OpHost:
		return hostCall(in.operand, ops, s), true
	}
	return opnd{}, false
}

// hostCall compiles a host intrinsic on exact operands, calling the
// math function directly.
func hostCall(id int, ops []opnd, s *site) opnd {
	if id == HostAbsI {
		x := ops[0].intFn()
		return opnd{k: akInt, src: srcTree, ti: func(f *cframe) int64 {
			n := x(f)
			if n < 0 {
				return -n
			}
			return n
		}}
	}
	x := ops[0].floatFn()
	e := opnd{k: akFloat, src: srcTree}
	// domainFail raises sqrt's or log's math trap through valueOp.
	domainFail := func(f *cframe, a float64) {
		v := FloatVal(a)
		s.fail(f.m, OpHost, id, &v, nil, nil)
	}
	switch id {
	case HostSqrt:
		e.tf = func(f *cframe) float64 {
			a := x(f)
			if a < 0 {
				domainFail(f, a)
			}
			return math.Sqrt(a)
		}
	case HostLog:
		e.tf = func(f *cframe) float64 {
			a := x(f)
			if a <= 0 {
				domainFail(f, a)
			}
			return math.Log(a)
		}
	case HostPow:
		y := ops[1].floatFn()
		e.tf = func(f *cframe) float64 {
			a := x(f)
			return math.Pow(a, y(f))
		}
	default:
		fn := map[int]func(float64) float64{
			HostAbsF: math.Abs, HostFloor: math.Floor, HostCeil: math.Ceil, HostExp: math.Exp,
		}[id]
		e.tf = func(f *cframe) float64 { return fn(x(f)) }
	}
	return e
}

// mixed compiles int or float arithmetic and comparisons on leaf
// operands of which some are any-kinded (arguments, globals, joined
// locals): they are read in place, and when all hold the kind the
// instruction wants at run time the typed path runs; otherwise generic
// code re-reads them and runs valueOp, which computes or traps.
func (c *fcomp) mixed(in instr, ops []opnd, d int, s *site) (opnd, bool) {
	op := in.op
	var want absKind
	switch op {
	case OpAddI, OpSubI, OpMulI, OpDivI, OpModI:
		want = akInt
	case OpAddF, OpSubF, OpMulF, OpDivF:
		want = akFloat
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		want = akInt
		if ops[0].k == akFloat || ops[1].k == akFloat {
			want = akFloat
		}
	default:
		return opnd{}, false
	}
	a, b := ops[0], ops[1]
	for _, o := range ops {
		if !o.leafy() || (o.k != want && o.k != akAny) {
			return opnd{}, false
		}
	}
	slow := c.generic(in, ops, d, s)
	e := opnd{k: resultKind(op, 0), src: srcTree}
	if want == akInt {
		x, y := a.intNum(), b.intNum()
		if e.k == akBool {
			e.pred = func(f *cframe) bool {
				n, ok := x(f)
				q, ok2 := y(f)
				if !ok || !ok2 {
					return slow.ti(f) != 0
				}
				return intCmp(op, n, q)
			}
		} else {
			e.ti = func(f *cframe) int64 {
				n, ok := x(f)
				q, ok2 := y(f)
				if !ok || !ok2 || (q == 0 && (op == OpDivI || op == OpModI)) {
					return slow.ti(f)
				}
				return intOp(op, n, q)
			}
		}
	} else {
		x, y := a.floatNum(), b.floatNum()
		if e.k == akBool {
			e.pred = func(f *cframe) bool {
				n, ok := x(f)
				q, ok2 := y(f)
				if !ok || !ok2 {
					return slow.ti(f) != 0
				}
				return floatCmp(op, n, q)
			}
		} else {
			e.tf = func(f *cframe) float64 {
				n, ok := x(f)
				q, ok2 := y(f)
				if !ok || !ok2 {
					return slow.tf(f)
				}
				return floatOp(op, n, q)
			}
		}
	}
	if pred := e.pred; pred != nil {
		e.ti = func(f *cframe) int64 { return b2i(pred(f)) }
	}
	return e, true
}

// intOp applies int arithmetic; a divisor is non-zero.
func intOp(op Op, a, b int64) int64 {
	switch op {
	case OpAddI:
		return a + b
	case OpSubI:
		return a - b
	case OpMulI:
		return a * b
	case OpDivI:
		return a / b
	}
	return a % b
}

func floatOp(op Op, a, b float64) float64 {
	switch op {
	case OpAddF:
		return a + b
	case OpSubF:
		return a - b
	case OpMulF:
		return a * b
	}
	return a / b
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func intCmp(op Op, a, b int64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	}
	return a >= b
}

// floatCmp matches compare on floats: every ordering involving NaN is
// false, and only ne holds.
func floatCmp(op Op, a, b float64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	}
	return a >= b
}

// intArith compiles exact int arithmetic.
func intArith(op Op, a, b opnd, s *site) opnd {
	x, y := a.intFn(), b.intFn()
	e := opnd{k: akInt, src: srcTree, bin: &binOp{op: op, x: a, y: b}}
	switch op {
	case OpAddI:
		e.ti = func(f *cframe) int64 { n := x(f); return n + y(f) }
	case OpSubI:
		e.ti = func(f *cframe) int64 { n := x(f); return n - y(f) }
	case OpMulI:
		e.ti = func(f *cframe) int64 { n := x(f); return n * y(f) }
	default:
		e.ti = func(f *cframe) int64 {
			n, q := x(f), y(f)
			if q == 0 {
				va, vb := IntVal(n), IntVal(q)
				s.fail(f.m, op, 0, &va, &vb, nil)
			}
			return intOp(op, n, q)
		}
	}
	return e
}

// floatArith compiles exact float arithmetic.
func floatArith(op Op, a, b opnd) opnd {
	x, y := a.floatFn(), b.floatFn()
	e := opnd{k: akFloat, src: srcTree}
	switch op {
	case OpAddF:
		e.tf = func(f *cframe) float64 { n := x(f); return n + y(f) }
	case OpSubF:
		e.tf = func(f *cframe) float64 { n := x(f); return n - y(f) }
	case OpMulF:
		e.tf = func(f *cframe) float64 { n := x(f); return n * y(f) }
	default:
		e.tf = func(f *cframe) float64 { n := x(f); return n / y(f) }
	}
	return e
}

// byteLoad compiles a load from a buffer operand (exact bytes or any,
// checked in place) at an exact int offset.
func byteLoad(op Op, buf, off opnd, s *site) opnd {
	w := loadWidth(op)
	fail := func(f *cframe, p *Value, o int64) {
		vo := IntVal(o)
		s.fail(f.m, op, 0, p, &vo, nil)
	}
	// at bounds-checks the access and returns the buffer from the
	// offset on; an argument buffer, the common case, is read directly.
	var at func(f *cframe) []byte
	of := off.intFn()
	if buf.src == srcArg {
		a := buf.r
		at = func(f *cframe) []byte {
			o := of(f)
			p := &f.args[a]
			if p.K != VBytes || o < 0 || o > int64(len(p.B))-w {
				fail(f, p, o)
			}
			return p.B[o:]
		}
	} else {
		bp := buf.valFn()
		at = func(f *cframe) []byte {
			p := bp(f)
			o := of(f)
			if p.K != VBytes || o < 0 || o > int64(len(p.B))-w {
				fail(f, p, o)
			}
			return p.B[o:]
		}
	}
	switch op {
	case OpLdU8:
		return opnd{k: akInt, src: srcTree, ti: func(f *cframe) int64 { return int64(at(f)[0]) }}
	case OpLdI32:
		return opnd{k: akInt, src: srcTree, ti: func(f *cframe) int64 {
			return int64(int32(binary.BigEndian.Uint32(at(f))))
		}}
	case OpLdF32:
		return opnd{k: akFloat, src: srcTree, tf: func(f *cframe) float64 {
			return float64(math.Float32frombits(binary.BigEndian.Uint32(at(f))))
		}}
	}
	return opnd{k: akFloat, src: srcTree, tf: func(f *cframe) float64 {
		return math.Float64frombits(binary.BigEndian.Uint64(at(f)))
	}}
}

// byteStore compiles a store of an exact value into an exact buffer.
// The result is the buffer itself, read in place.
func byteStore(op Op, buf, off, val opnd, s *site) opnd {
	bp, of := buf.valFn(), off.intFn()
	var w int64 = 4
	if op == OpStU8 {
		w = 1
	}
	at := func(f *cframe, p *Value, o int64, v Value) []byte {
		if !p.W || o < 0 || o > int64(len(p.B))-w {
			vo := IntVal(o)
			s.fail(f.m, op, 0, p, &vo, &v)
		}
		return p.B[o:]
	}
	var tv func(*cframe) *Value
	switch op {
	case OpStU8:
		x := val.intFn()
		tv = func(f *cframe) *Value {
			p := bp(f)
			o := of(f)
			n := x(f)
			at(f, p, o, IntVal(n))[0] = byte(n)
			return p
		}
	case OpStI32:
		x := val.intFn()
		tv = func(f *cframe) *Value {
			p := bp(f)
			o := of(f)
			n := x(f)
			binary.BigEndian.PutUint32(at(f, p, o, IntVal(n)), uint32(int32(n)))
			return p
		}
	default:
		x := val.floatFn()
		tv = func(f *cframe) *Value {
			p := bp(f)
			o := of(f)
			n := x(f)
			binary.BigEndian.PutUint32(at(f, p, o, FloatVal(n)), math.Float32bits(float32(n)))
			return p
		}
	}
	return opnd{k: akBytes, src: srcTree, tv: tv}
}
