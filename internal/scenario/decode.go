package scenario

import (
	"fmt"
	"math"

	"flexran/internal/lte"
	"flexran/internal/yamlite"
)

// knob binds one key of a section map to the field it sets and the rule
// its value must satisfy. ptr is one of:
//
//   - a field pointer: *int, *int64, *uint64, *float64, *bool, *string,
//     *lte.ENBID, *lte.CellID, *PointDecl, *[]float64 or **yamlite.Node;
//   - a setter, func(float64) or func(PointDecl), called with the value
//     once it has passed the rule (for knobs with side effects);
//   - a hook, func(*yamlite.Node) error, for knobs whose value is a nested
//     section, an enum or another shape the rule cannot express. A hook
//     reports its own errors and its rule is ignored.
type knob struct {
	key  string
	ptr  any
	rule rule
}

// rule types and bounds a knob's value. A value of the wrong type, below
// lo, above hi or on an open bound is reported as
// "scenario: <where>.<key> must be <want>".
type rule struct {
	lo, hi         float64
	openLo, openHi bool
	want           string
}

var inf = math.Inf(1)

// The rules the scenario knobs share.
var (
	anyInt    = rule{lo: -inf, hi: inf, want: "an integer"}
	posInt    = rule{lo: 0, openLo: true, hi: inf, want: "a positive integer"}
	nonNeg    = rule{lo: 0, hi: inf, want: "a non-negative integer"}
	cqi       = rule{lo: 1, hi: lte.MaxCQI, want: "a CQI in [1, 15]"}
	anyNum    = rule{lo: -inf, hi: inf, want: "a number"}
	posNum    = rule{lo: 0, openLo: true, hi: inf, want: "a positive number"}
	nonNegNum = rule{lo: 0, hi: inf, want: "a non-negative number"}
	prob      = rule{lo: 0, hi: 1, want: "a probability in [0, 1]"}
	fraction  = rule{lo: 0, openLo: true, hi: 1, want: "in (0, 1]"}
	boolean   = rule{want: "a boolean"}
	point     = rule{want: "an [x, y] pair"}
	floats    = rule{want: "a float sequence"}
	aMap      = rule{want: "a map"}
	// text takes any scalar as a string (a non-scalar reads as "").
	text = rule{}
	// custom marks a hook knob.
	custom = rule{}
)

// admits reports whether v lies within r's bounds. NaN compares false
// against every bound and so is admitted.
func (r rule) admits(v float64) bool {
	return !(v < r.lo || v > r.hi || r.openLo && v == r.lo || r.openHi && v == r.hi)
}

func (r rule) asInt(n *yamlite.Node) (int64, bool) {
	v, err := n.Int()
	return v, err == nil && r.admits(float64(v))
}

func (r rule) asFloat(n *yamlite.Node) (float64, bool) {
	f, err := n.Float()
	return f, err == nil && r.admits(f)
}

func asPoint(n *yamlite.Node) (PointDecl, bool) {
	fs, err := n.Floats()
	if err != nil || len(fs) != 2 {
		return PointDecl{}, false
	}
	return PointDecl{X: fs[0], Y: fs[1]}, true
}

// decodeMap decodes the section map n, named where in messages, through
// knobs. Keys are taken in document order, so the first bad key is the
// one reported; a key no knob names is rejected.
func decodeMap(n *yamlite.Node, where string, knobs []knob) error {
	if n == nil || n.Kind != yamlite.KindMap {
		return fmt.Errorf("scenario: %s must be a map", where)
	}
	for _, key := range n.Keys() {
		i := 0
		for i < len(knobs) && knobs[i].key != key {
			i++
		}
		if i == len(knobs) {
			return fmt.Errorf("scenario: %s has no knob %q", where, key)
		}
		if err := knobs[i].set(n.Get(key), where); err != nil {
			return err
		}
	}
	return nil
}

// set stores val through k. On failure the field is left unspecified: the
// error aborts the parse.
func (k *knob) set(val *yamlite.Node, where string) error {
	ok := true
	switch p := k.ptr.(type) {
	case func(*yamlite.Node) error:
		return p(val)
	case func(float64):
		var f float64
		if f, ok = k.rule.asFloat(val); ok {
			p(f)
		}
	case func(PointDecl):
		var pt PointDecl
		if pt, ok = asPoint(val); ok {
			p(pt)
		}
	case *string:
		*p = val.Str()
	case *bool:
		b, err := val.Bool()
		*p, ok = b, err == nil
	case *float64:
		*p, ok = k.rule.asFloat(val)
	case *int64:
		*p, ok = k.rule.asInt(val)
	case *int:
		v, good := k.rule.asInt(val)
		*p, ok = int(v), good
	case *uint64:
		v, good := k.rule.asInt(val)
		*p, ok = uint64(v), good
	case *lte.ENBID:
		v, good := k.rule.asInt(val)
		*p, ok = lte.ENBID(v), good
	case *lte.CellID:
		v, good := k.rule.asInt(val)
		*p, ok = lte.CellID(v), good
	case *PointDecl:
		*p, ok = asPoint(val)
	case *[]float64:
		fs, err := val.Floats()
		*p, ok = fs, err == nil && len(fs) > 0
	case **yamlite.Node:
		*p, ok = val, val.Kind == yamlite.KindMap
	default:
		panic(fmt.Sprintf("scenario: knob %s.%s has unsupported target %T", where, k.key, k.ptr))
	}
	if !ok {
		return badKnob(where, k.key, k.rule)
	}
	return nil
}

func badKnob(where, key string, r rule) error {
	return fmt.Errorf("scenario: %s.%s must be %s", where, key, r.want)
}

// section checks that top-level section name holds a node of kind.
func section(n *yamlite.Node, name string, kind yamlite.Kind) error {
	if n != nil && n.Kind == kind {
		return nil
	}
	want := "map"
	if kind == yamlite.KindSeq {
		want = "sequence"
	}
	return fmt.Errorf("scenario: %s section must be a %s", name, want)
}

// items calls fn on every item of the sequence n, naming item i
// "<where>[i]".
func items(n *yamlite.Node, where string, fn func(item *yamlite.Node, where string) error) error {
	if n == nil || n.Kind != yamlite.KindSeq {
		return fmt.Errorf("scenario: %s must be a sequence", where)
	}
	for i, it := range n.Items() {
		if err := fn(it, fmt.Sprintf("%s[%d]", where, i)); err != nil {
			return err
		}
	}
	return nil
}

// oneOf is the hook of an enum knob: it stores a value listed in allowed
// and reports any other as "scenario: <where>: unknown <what> %q".
func oneOf(dst *string, where, what string, allowed ...string) func(*yamlite.Node) error {
	return func(n *yamlite.Node) error {
		for _, a := range allowed {
			if n.Str() == a {
				*dst = a
				return nil
			}
		}
		return fmt.Errorf("scenario: %s: unknown %s %q", where, what, n.Str())
	}
}

// enbOrAll is the hook of an `enb: <id>|"all"` knob under where.
func enbOrAll(id *lte.ENBID, all *bool, where string) func(*yamlite.Node) error {
	return func(n *yamlite.Node) error {
		if n.Str() == "all" {
			*all = true
			return nil
		}
		v, ok := posInt.asInt(n)
		if !ok {
			return fmt.Errorf("scenario: %s.enb must be a positive integer or \"all\"", where)
		}
		*id = lte.ENBID(v)
		return nil
	}
}
