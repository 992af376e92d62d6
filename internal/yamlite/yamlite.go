// Package yamlite is a minimal YAML-subset parser and emitter, written for
// the FlexRAN policy reconfiguration mechanism (paper §4.3.1, Fig. 3): the
// master controller expresses VSF swaps and parameter updates as an
// indentation-structured document such as
//
//	mac:
//	  dl_scheduler:
//	    behavior: flexran.sched.pf
//	    parameters:
//	      rb_share: [0.7, 0.3]
//	      fairness: 1.0
//
// The stdlib has no YAML support and the module must stay dependency-free,
// so this package implements the subset the protocol needs: nested maps,
// block sequences ("- item"), inline sequences ("[a, b]"), scalars with
// int/float/bool/string interpretation, quoted strings and '#' comments.
// Anchors, aliases, multi-document streams and flow maps are out of scope.
package yamlite

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates node types.
type Kind uint8

// Node kinds.
const (
	KindScalar Kind = iota
	KindMap
	KindSeq
)

func (k Kind) String() string {
	switch k {
	case KindScalar:
		return "scalar"
	case KindMap:
		return "map"
	case KindSeq:
		return "seq"
	}
	return "invalid"
}

// Node is one value in a parsed document.
type Node struct {
	Kind     Kind
	scalar   string
	quoted   bool
	keys     []string // map key order as written
	children map[string]*Node
	items    []*Node
}

// Scalar returns a new scalar node.
func Scalar(v interface{}) *Node {
	return &Node{Kind: KindScalar, scalar: fmt.Sprint(v)}
}

// Map returns a new empty map node.
func Map() *Node {
	return &Node{Kind: KindMap, children: map[string]*Node{}}
}

// Seq returns a new sequence node holding the given items.
func Seq(items ...*Node) *Node {
	return &Node{Kind: KindSeq, items: items}
}

// Set adds or replaces a map entry, preserving first-insertion order.
func (n *Node) Set(key string, v *Node) *Node {
	if n.Kind != KindMap {
		panic("yamlite: Set on non-map node")
	}
	if _, ok := n.children[key]; !ok {
		n.keys = append(n.keys, key)
	}
	n.children[key] = v
	return n
}

// Get returns the child node for a map key, or nil.
func (n *Node) Get(key string) *Node {
	if n == nil || n.Kind != KindMap {
		return nil
	}
	return n.children[key]
}

// Keys returns the map keys in document order.
func (n *Node) Keys() []string {
	if n == nil {
		return nil
	}
	return append([]string(nil), n.keys...)
}

// Items returns the sequence items.
func (n *Node) Items() []*Node {
	if n == nil {
		return nil
	}
	return n.items
}

// Len returns the number of entries (map) or items (sequence), 0 otherwise.
func (n *Node) Len() int {
	if n == nil {
		return 0
	}
	switch n.Kind {
	case KindMap:
		return len(n.keys)
	case KindSeq:
		return len(n.items)
	}
	return 0
}

// Str returns the scalar as a string ("" for nil or non-scalars).
func (n *Node) Str() string {
	if n == nil || n.Kind != KindScalar {
		return ""
	}
	return n.scalar
}

// Int returns the scalar parsed as an integer.
func (n *Node) Int() (int64, error) {
	if n == nil || n.Kind != KindScalar {
		return 0, errors.New("yamlite: not a scalar")
	}
	return strconv.ParseInt(n.scalar, 10, 64)
}

// Float returns the scalar parsed as a float.
func (n *Node) Float() (float64, error) {
	if n == nil || n.Kind != KindScalar {
		return 0, errors.New("yamlite: not a scalar")
	}
	return strconv.ParseFloat(n.scalar, 64)
}

// Bool returns the scalar parsed as a boolean (true/false/yes/no/on/off).
func (n *Node) Bool() (bool, error) {
	if n == nil || n.Kind != KindScalar {
		return false, errors.New("yamlite: not a scalar")
	}
	switch strings.ToLower(n.scalar) {
	case "true", "yes", "on":
		return true, nil
	case "false", "no", "off":
		return false, nil
	}
	return false, fmt.Errorf("yamlite: %q is not a boolean", n.scalar)
}

// Floats returns a sequence interpreted as a float slice.
func (n *Node) Floats() ([]float64, error) {
	if n == nil || n.Kind != KindSeq {
		return nil, errors.New("yamlite: not a sequence")
	}
	out := make([]float64, 0, len(n.items))
	for _, it := range n.items {
		f, err := it.Float()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Strings returns a sequence interpreted as a string slice.
func (n *Node) Strings() ([]string, error) {
	if n == nil || n.Kind != KindSeq {
		return nil, errors.New("yamlite: not a sequence")
	}
	out := make([]string, 0, len(n.items))
	for _, it := range n.items {
		out = append(out, it.Str())
	}
	return out, nil
}

// line is a logical input line with indentation resolved.
type line struct {
	num    int
	indent int
	text   string // content with indentation stripped
}

// Parse parses a document into its root node (a map, sequence or scalar).
func Parse(doc string) (*Node, error) {
	var lines []line
	for i, raw := range strings.Split(doc, "\n") {
		text := stripComment(raw)
		if strings.TrimSpace(text) == "" {
			continue
		}
		trimmed := strings.TrimLeft(text, " ")
		if strings.HasPrefix(trimmed, "\t") {
			return nil, fmt.Errorf("yamlite: line %d: tabs are not allowed in indentation", i+1)
		}
		lines = append(lines, line{
			num:    i + 1,
			indent: len(text) - len(trimmed),
			text:   strings.TrimSpace(trimmed),
		})
	}
	if len(lines) == 0 {
		return Map(), nil
	}
	p := &parser{lines: lines}
	n, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, fmt.Errorf("yamlite: line %d: unexpected de-indent structure", p.lines[p.pos].num)
	}
	return n, nil
}

// stripComment removes a trailing # comment that is not inside quotes.
func stripComment(s string) string {
	inS, inD := false, false
	for i, r := range s {
		switch r {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '#':
			if !inS && !inD && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
				return s[:i]
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) peek() (line, bool) {
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	return p.lines[p.pos], true
}

// parseBlock parses the run of lines at exactly the given indentation.
func (p *parser) parseBlock(indent int) (*Node, error) {
	first, ok := p.peek()
	if !ok {
		return nil, errors.New("yamlite: empty block")
	}
	if strings.HasPrefix(first.text, "- ") || first.text == "-" {
		return p.parseSeq(indent)
	}
	if isMapEntry(first.text) {
		return p.parseMap(indent)
	}
	// Bare scalar document.
	p.pos++
	v, err := parseScalarOrInline(first.text)
	if err != nil {
		return nil, fmt.Errorf("yamlite: line %d: %v", first.num, err)
	}
	return v, nil
}

func isMapEntry(text string) bool {
	k, _, ok := splitKey(text)
	return ok && k != ""
}

// splitKey splits "key: value" at the first unquoted ": " or trailing ":".
func splitKey(text string) (key, rest string, ok bool) {
	inS, inD := false, false
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case ':':
			if inS || inD {
				continue
			}
			if i == len(text)-1 {
				return strings.TrimSpace(text[:i]), "", true
			}
			if text[i+1] == ' ' {
				return strings.TrimSpace(text[:i]), strings.TrimSpace(text[i+2:]), true
			}
		}
	}
	return "", "", false
}

func (p *parser) parseMap(indent int) (*Node, error) {
	m := Map()
	if err := p.parseMapInto(m, indent); err != nil {
		return nil, err
	}
	return m, nil
}

// parseMapInto adds the entries at the given indentation to m, rejecting
// any key m already holds.
func (p *parser) parseMapInto(m *Node, indent int) error {
	for {
		ln, ok := p.peek()
		if !ok || ln.indent < indent {
			return nil
		}
		if ln.indent > indent {
			return fmt.Errorf("yamlite: line %d: unexpected indentation", ln.num)
		}
		key, rest, isMap := splitKey(ln.text)
		if !isMap {
			return fmt.Errorf("yamlite: line %d: expected 'key:' entry", ln.num)
		}
		key = unquote(key)
		if _, dup := m.children[key]; dup {
			return fmt.Errorf("yamlite: line %d: duplicate key %q", ln.num, key)
		}
		p.pos++
		if rest != "" {
			v, err := parseScalarOrInline(rest)
			if err != nil {
				return fmt.Errorf("yamlite: line %d: %v", ln.num, err)
			}
			m.Set(key, v)
			continue
		}
		// Value is a nested block (or an empty scalar if nothing deeper).
		next, ok := p.peek()
		if !ok || next.indent <= indent {
			m.Set(key, Scalar(""))
			continue
		}
		child, err := p.parseBlock(next.indent)
		if err != nil {
			return err
		}
		m.Set(key, child)
	}
}

func (p *parser) parseSeq(indent int) (*Node, error) {
	seq := &Node{Kind: KindSeq}
	for {
		ln, ok := p.peek()
		if !ok || ln.indent < indent {
			return seq, nil
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("yamlite: line %d: unexpected indentation", ln.num)
		}
		if ln.text != "-" && !strings.HasPrefix(ln.text, "- ") {
			return nil, fmt.Errorf("yamlite: line %d: expected sequence item", ln.num)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(ln.text, "-"))
		p.pos++
		if rest == "" {
			next, ok := p.peek()
			if !ok || next.indent <= indent {
				seq.items = append(seq.items, Scalar(""))
				continue
			}
			child, err := p.parseBlock(next.indent)
			if err != nil {
				return nil, err
			}
			seq.items = append(seq.items, child)
			continue
		}
		if isMapEntry(rest) {
			// "- key: value" starts an inline map item whose further keys
			// sit two spaces deeper than the dash.
			itemIndent := ln.indent + 2
			item := Map()
			key, val, _ := splitKey(rest)
			if val != "" {
				v, err := parseScalarOrInline(val)
				if err != nil {
					return nil, fmt.Errorf("yamlite: line %d: %v", ln.num, err)
				}
				item.Set(unquote(key), v)
			} else {
				item.Set(unquote(key), Scalar(""))
			}
			if next, ok := p.peek(); ok && next.indent == itemIndent && isMapEntry(next.text) {
				if err := p.parseMapInto(item, itemIndent); err != nil {
					return nil, err
				}
			}
			seq.items = append(seq.items, item)
			continue
		}
		v, err := parseScalarOrInline(rest)
		if err != nil {
			return nil, fmt.Errorf("yamlite: line %d: %v", ln.num, err)
		}
		seq.items = append(seq.items, v)
	}
}

// parseScalarOrInline parses a scalar or an inline [a, b, c] sequence.
func parseScalarOrInline(text string) (*Node, error) {
	if strings.HasPrefix(text, "[") {
		if !strings.HasSuffix(text, "]") {
			return nil, fmt.Errorf("unterminated inline sequence %q", text)
		}
		inner := strings.TrimSpace(text[1 : len(text)-1])
		seq := &Node{Kind: KindSeq}
		if inner == "" {
			return seq, nil
		}
		for _, part := range splitInline(inner) {
			item, err := parseScalarOrInline(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			seq.items = append(seq.items, item)
		}
		return seq, nil
	}
	n := &Node{Kind: KindScalar}
	switch {
	case len(text) >= 2 && text[0] == '"' && text[len(text)-1] == '"':
		u, err := strconv.Unquote(text)
		if err != nil {
			return nil, fmt.Errorf("bad quoted string %s", text)
		}
		n.scalar, n.quoted = u, true
	case len(text) >= 2 && text[0] == '\'' && text[len(text)-1] == '\'':
		n.scalar = strings.ReplaceAll(text[1:len(text)-1], "''", "'")
		n.quoted = true
	case len(text) > 0 && (text[0] == '"' || text[0] == '\''):
		// A leading quote without a matching closer would otherwise be
		// swallowed as a literal scalar — surface the typo instead.
		return nil, fmt.Errorf("bad quoted string %s", text)
	default:
		n.scalar = text
	}
	return n, nil
}

// splitInline splits "a, b, [c, d]" on top-level commas.
func splitInline(s string) []string {
	var parts []string
	depth := 0
	start := 0
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '[':
			if !inS && !inD {
				depth++
			}
		case ']':
			if !inS && !inD {
				depth--
			}
		case ',':
			if depth == 0 && !inS && !inD {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

func unquote(s string) string {
	if len(s) >= 2 && (s[0] == '"' && s[len(s)-1] == '"') {
		if u, err := strconv.Unquote(s); err == nil {
			return u
		}
	}
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
	}
	return s
}

// Marshal renders a node tree back into document text. Maps keep insertion
// order; the output round-trips through Parse.
func Marshal(n *Node) string {
	var b strings.Builder
	marshalNode(&b, n, 0)
	return b.String()
}

func marshalNode(b *strings.Builder, n *Node, indent int) {
	pad := strings.Repeat(" ", indent)
	switch n.Kind {
	case KindMap:
		keys := n.keys
		if keys == nil {
			keys = make([]string, 0, len(n.children))
			for k := range n.children {
				keys = append(keys, k)
			}
			sort.Strings(keys)
		}
		for _, k := range keys {
			c := n.children[k]
			switch {
			case c == nil:
				fmt.Fprintf(b, "%s%s:\n", pad, k)
			case c.Kind == KindScalar:
				fmt.Fprintf(b, "%s%s: %s\n", pad, k, renderScalar(c))
			case c.Kind == KindSeq && allScalars(c):
				fmt.Fprintf(b, "%s%s: %s\n", pad, k, renderInlineSeq(c))
			default:
				fmt.Fprintf(b, "%s%s:\n", pad, k)
				marshalNode(b, c, indent+2)
			}
		}
	case KindSeq:
		for _, it := range n.items {
			if it.Kind == KindScalar {
				fmt.Fprintf(b, "%s- %s\n", pad, renderScalar(it))
			} else {
				fmt.Fprintf(b, "%s-\n", pad)
				marshalNode(b, it, indent+2)
			}
		}
	case KindScalar:
		fmt.Fprintf(b, "%s%s\n", pad, renderScalar(n))
	}
}

func allScalars(n *Node) bool {
	for _, it := range n.items {
		if it.Kind != KindScalar {
			return false
		}
	}
	return true
}

func renderInlineSeq(n *Node) string {
	parts := make([]string, len(n.items))
	for i, it := range n.items {
		parts[i] = renderScalar(it)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func renderScalar(n *Node) string {
	s := n.scalar
	if n.quoted || s == "" || strings.ContainsAny(s, ":#[],\"'") ||
		s != strings.TrimSpace(s) {
		return strconv.Quote(s)
	}
	return s
}
