// Package expr provides the typed expression language shared by every
// verification engine in verdict.
//
// Expressions are immutable trees over four scalar types: booleans,
// bounded integers, symbolic enumerations, and (exact rational) reals.
// Transition systems (package ts) phrase their INIT/TRANS/INVAR
// constraints in this language; the CNF, BDD and SMT compilers each
// lower it to their own representation.
package expr

import (
	"fmt"
	"math/big"
	"strings"
)

// Kind enumerates the scalar type kinds.
type Kind int

const (
	KindBool Kind = iota
	KindInt
	KindEnum
	KindReal
)

func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindEnum:
		return "enum"
	case KindReal:
		return "real"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Type describes the domain of an expression. Types are compared with
// Equal; two bounded-int types are equal iff their ranges coincide, and
// two enum types are equal iff they have identical value lists.
type Type struct {
	Kind Kind
	// Lo and Hi bound integer types (inclusive). Unused otherwise.
	Lo, Hi int64
	// Values lists the symbolic constants of an enum type, in
	// declaration order. Unused otherwise.
	Values []string
}

// Bool is the boolean type.
func Bool() Type { return Type{Kind: KindBool} }

// Int returns the bounded integer type [lo, hi]. It panics if lo > hi:
// an empty domain can never be satisfied and always indicates a
// construction bug in the caller.
func Int(lo, hi int64) Type {
	if lo > hi {
		panic(fmt.Sprintf("expr: empty int range [%d, %d]", lo, hi))
	}
	return Type{Kind: KindInt, Lo: lo, Hi: hi}
}

// Enum returns an enumeration type over the given symbolic values. It
// panics on an empty or duplicated value list.
func Enum(values ...string) Type {
	if len(values) == 0 {
		panic("expr: empty enum")
	}
	seen := make(map[string]bool, len(values))
	for _, v := range values {
		if seen[v] {
			panic("expr: duplicate enum value " + v)
		}
		seen[v] = true
	}
	return Type{Kind: KindEnum, Values: values}
}

// Real is the (exact rational) real type.
func Real() Type { return Type{Kind: KindReal} }

// Equal reports whether two types describe the same domain.
func (t Type) Equal(u Type) bool {
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case KindInt:
		return t.Lo == u.Lo && t.Hi == u.Hi
	case KindEnum:
		if len(t.Values) != len(u.Values) {
			return false
		}
		for i := range t.Values {
			if t.Values[i] != u.Values[i] {
				return false
			}
		}
	}
	return true
}

// Size returns the number of elements in a finite domain, or 0 for
// reals (infinite domain).
func (t Type) Size() int64 {
	switch t.Kind {
	case KindBool:
		return 2
	case KindInt:
		return t.Hi - t.Lo + 1
	case KindEnum:
		return int64(len(t.Values))
	}
	return 0
}

// Domain enumerates a finite domain's values in order; it is nil for
// reals.
func (t Type) Domain() []Value {
	out := make([]Value, 0, t.Size())
	switch t.Kind {
	case KindBool:
		out = append(out, BoolValue(false), BoolValue(true))
	case KindInt:
		for i := t.Lo; i <= t.Hi; i++ {
			out = append(out, IntValue(i))
		}
	case KindEnum:
		for _, s := range t.Values {
			out = append(out, EnumValue(s))
		}
	default:
		return nil
	}
	return out
}

// Finite reports whether the domain is finite.
func (t Type) Finite() bool { return t.Kind != KindReal }

// EnumIndex returns the index of value v in an enum type, or -1.
func (t Type) EnumIndex(v string) int {
	for i, s := range t.Values {
		if s == v {
			return i
		}
	}
	return -1
}

func (t Type) String() string {
	switch t.Kind {
	case KindBool:
		return "bool"
	case KindInt:
		return fmt.Sprintf("%d..%d", t.Lo, t.Hi)
	case KindEnum:
		return "{" + strings.Join(t.Values, ", ") + "}"
	case KindReal:
		return "real"
	}
	return "?"
}

// Value is a concrete element of some domain. Exactly one of the
// payload fields is meaningful, selected by Kind.
type Value struct {
	Kind Kind
	B    bool
	I    int64    // int payload
	Sym  string   // enum payload
	R    *big.Rat // real payload; treated as immutable
}

// BoolValue wraps a bool.
func BoolValue(b bool) Value { return Value{Kind: KindBool, B: b} }

// IntValue wraps an int64.
func IntValue(i int64) Value { return Value{Kind: KindInt, I: i} }

// EnumValue wraps a symbolic constant.
func EnumValue(s string) Value { return Value{Kind: KindEnum, Sym: s} }

// RealValue wraps a rational; the rat must not be mutated afterwards.
func RealValue(r *big.Rat) Value { return Value{Kind: KindReal, R: r} }

// RealInt wraps an integer-valued real.
func RealInt(i int64) Value { return RealValue(new(big.Rat).SetInt64(i)) }

// Equal reports value equality. Int and real values compare across the
// two numeric kinds (3 == 3.0); enum values compare by symbol.
func (v Value) Equal(w Value) bool {
	if v.Kind == w.Kind {
		switch v.Kind {
		case KindBool:
			return v.B == w.B
		case KindInt:
			return v.I == w.I
		case KindEnum:
			return v.Sym == w.Sym
		case KindReal:
			return v.R.Cmp(w.R) == 0
		}
	}
	if v.Kind == KindInt && w.Kind == KindReal {
		return new(big.Rat).SetInt64(v.I).Cmp(w.R) == 0
	}
	if v.Kind == KindReal && w.Kind == KindInt {
		return v.R.Cmp(new(big.Rat).SetInt64(w.I)) == 0
	}
	return false
}

func (v Value) String() string {
	switch v.Kind {
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindEnum:
		return v.Sym
	case KindReal:
		return v.R.RatString()
	}
	return "?"
}

// Rat returns the numeric value as a rational. It panics for bool/enum
// values.
func (v Value) Rat() *big.Rat {
	switch v.Kind {
	case KindInt:
		return new(big.Rat).SetInt64(v.I)
	case KindReal:
		return v.R
	}
	panic("expr: Rat on non-numeric value " + v.String())
}
