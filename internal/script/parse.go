// Package script implements a small, deterministic memory-access
// language for driving the simulated machine without writing Go — the
// equivalent of the trace-driven front ends memory-system simulators
// usually carry. Programs allocate named regions, move data through the
// full hierarchy with typed loads/stores, loop, and invoke the Impulse
// remapping operations; an `impulse`/`else` block lets one program
// express both the conventional and the remapped variant of a kernel so
// the two can be compared for identical results.
//
// Example (the Figure 1 diagonal):
//
//	alloc mat 32768            # 64x64 doubles
//	set r1 0                   # byte offset of A[i][i]
//	repeat 64
//	  fset f0 1.5
//	  storef mat r1 f0
//	  add r1 r1 520            # next diagonal element: (64+1)*8
//	end
//	impulse
//	  stride diag 8 520 64 0   # dense alias of the diagonal
//	  retarget diag mat 32768 purge
//	  set r1 0
//	  repeat 64
//	    loadf f1 diag r1
//	    acc f1
//	    add r1 r1 8
//	  end
//	else
//	  set r1 0
//	  repeat 64
//	    loadf f1 mat r1
//	    acc f1
//	    add r1 r1 520
//	  end
//	end
package script

import (
	"fmt"
	"strconv"
	"strings"
)

// opcode identifies an instruction.
type opcode int

const (
	opAlloc opcode = iota
	opSet
	opFset
	opAdd
	opSub
	opMul
	opLoad32
	opLoad64
	opLoadF
	opStore32
	opStore64
	opStoreF
	opFadd
	opFmul
	opAcc
	opTick
	opFlush
	opPurge
	opRepeat
	opEnd
	opImpulse
	opElse
	opGather
	opStride
	opRetarget
	opRecolor
	opSuperpage
)

// operand is a register, immediate, or region reference.
type operand struct {
	kind oKind
	reg  int     // register index for oReg / oFreg
	imm  uint64  // immediate for oImm
	fimm float64 // immediate for oFimm
	name string  // region name for oName, or mode keyword
}

type oKind int

const (
	oReg oKind = iota
	oFreg
	oImm
	oFimm
	oName
)

// instr is one parsed instruction.
type instr struct {
	op   opcode
	args []operand
	line int
	// Control-flow links, resolved at parse time:
	match int // repeat -> its end; impulse -> its else/end; else -> end
}

// Program is a parsed script.
type Program struct {
	instrs []instr
}

const (
	// NumIntRegs is the number of integer registers (r0..r15).
	NumIntRegs = 16
	// NumFloatRegs is the number of float registers (f0..f15).
	NumFloatRegs = 16
)

var opSpec = map[string]struct {
	op    opcode
	arity int // -1: variable (checked in exec/parse specially)
}{
	"alloc":     {opAlloc, -1}, // alloc name bytes [align]
	"set":       {opSet, 2},
	"fset":      {opFset, 2},
	"add":       {opAdd, 3},
	"sub":       {opSub, 3},
	"mul":       {opMul, 3},
	"load32":    {opLoad32, 3},
	"load64":    {opLoad64, 3},
	"loadf":     {opLoadF, 3},
	"store32":   {opStore32, 3},
	"store64":   {opStore64, 3},
	"storef":    {opStoreF, 3},
	"fadd":      {opFadd, 3},
	"fmul":      {opFmul, 3},
	"acc":       {opAcc, 1},
	"tick":      {opTick, 1},
	"flush":     {opFlush, 3},
	"purge":     {opPurge, 3},
	"repeat":    {opRepeat, 1},
	"end":       {opEnd, 0},
	"impulse":   {opImpulse, 0},
	"else":      {opElse, 0},
	"gather":    {opGather, -1},   // gather alias target elem vec count [l1off]
	"stride":    {opStride, 5},    // stride alias obj stridebytes count l1off
	"retarget":  {opRetarget, -1}, // retarget alias target span mode [offset]
	"recolor":   {opRecolor, 3},
	"superpage": {opSuperpage, 1},
}

// Parse compiles source text into a Program. Errors carry line numbers.
func Parse(src string) (*Program, error) {
	p := &Program{}
	type frame struct {
		idx  int
		kind opcode // opRepeat or opImpulse/opElse
	}
	var stack []frame
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		n := lineNo + 1
		spec, ok := opSpec[fields[0]]
		if !ok {
			return nil, fmt.Errorf("script: line %d: unknown instruction %q", n, fields[0])
		}
		args := make([]operand, 0, len(fields)-1)
		for _, f := range fields[1:] {
			a, err := parseOperand(f)
			if err != nil {
				return nil, fmt.Errorf("script: line %d: %v", n, err)
			}
			args = append(args, a)
		}
		if spec.arity >= 0 && len(args) != spec.arity {
			return nil, fmt.Errorf("script: line %d: %s takes %d operands, got %d",
				n, fields[0], spec.arity, len(args))
		}
		switch spec.op {
		case opAlloc:
			if len(args) != 2 && len(args) != 3 {
				return nil, fmt.Errorf("script: line %d: alloc takes 2 or 3 operands", n)
			}
		case opGather:
			if len(args) != 5 && len(args) != 6 {
				return nil, fmt.Errorf("script: line %d: gather takes 5 or 6 operands", n)
			}
		case opRetarget:
			if len(args) != 4 && len(args) != 5 {
				return nil, fmt.Errorf("script: line %d: retarget takes 4 or 5 operands", n)
			}
		}
		idx := len(p.instrs)
		p.instrs = append(p.instrs, instr{op: spec.op, args: args, line: n})
		switch spec.op {
		case opRepeat, opImpulse:
			stack = append(stack, frame{idx: idx, kind: spec.op})
		case opElse:
			if len(stack) == 0 || stack[len(stack)-1].kind != opImpulse {
				return nil, fmt.Errorf("script: line %d: else without impulse", n)
			}
			p.instrs[stack[len(stack)-1].idx].match = idx
			stack[len(stack)-1] = frame{idx: idx, kind: opElse}
		case opEnd:
			if len(stack) == 0 {
				return nil, fmt.Errorf("script: line %d: end without repeat/impulse", n)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p.instrs[top.idx].match = idx
			if top.kind == opRepeat {
				p.instrs[idx].match = top.idx // end jumps back to its repeat
			} else {
				p.instrs[idx].match = -1 // block end: no loop to close
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("script: line %d: unterminated block", p.instrs[stack[len(stack)-1].idx].line)
	}
	return p, nil
}

func parseOperand(f string) (operand, error) {
	switch {
	case len(f) >= 2 && f[0] == 'r' && isDigits(f[1:]):
		i, _ := strconv.Atoi(f[1:])
		if i >= NumIntRegs {
			return operand{}, fmt.Errorf("register %s out of range", f)
		}
		return operand{kind: oReg, reg: i}, nil
	case len(f) >= 2 && f[0] == 'f' && isDigits(f[1:]):
		i, _ := strconv.Atoi(f[1:])
		if i >= NumFloatRegs {
			return operand{}, fmt.Errorf("register %s out of range", f)
		}
		return operand{kind: oFreg, reg: i}, nil
	case strings.HasPrefix(f, "0x"):
		v, err := strconv.ParseUint(f[2:], 16, 64)
		if err != nil {
			return operand{}, fmt.Errorf("bad hex immediate %q", f)
		}
		return operand{kind: oImm, imm: v}, nil
	case isDigits(f):
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return operand{}, fmt.Errorf("bad immediate %q", f)
		}
		return operand{kind: oImm, imm: v}, nil
	case (strings.ContainsAny(f, ".eE") || strings.HasPrefix(f, "-")) && isFloaty(f):
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return operand{}, fmt.Errorf("bad float immediate %q", f)
		}
		return operand{kind: oFimm, fimm: v}, nil
	default:
		if !isIdent(f) {
			return operand{}, fmt.Errorf("bad operand %q", f)
		}
		return operand{kind: oName, name: f}, nil
	}
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func isFloaty(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		digit := c >= '0' && c <= '9'
		if !alpha && !(digit && i > 0) {
			return false
		}
	}
	return true
}

// Len returns the instruction count (diagnostics).
func (p *Program) Len() int { return len(p.instrs) }
