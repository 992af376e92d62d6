package yamlite

import (
	"strings"
	"testing"
)

// The motivating document: a FlexRAN policy reconfiguration message
// mirroring Fig. 3 of the paper.
const policyDoc = `
# policy reconfiguration for the MAC control module
mac:
  dl_scheduler:
    behavior: flexran.sched.pf
    parameters:
      rb_share: [0.7, 0.3]
      fairness: 1.0
      name: "premium tier"
  ul_scheduler:
    behavior: flexran.sched.rr
`

func TestParsePolicyDocument(t *testing.T) {
	root, err := Parse(policyDoc)
	if err != nil {
		t.Fatal(err)
	}
	mac := root.Get("mac")
	if mac == nil || mac.Kind != KindMap {
		t.Fatalf("mac node missing: %+v", root)
	}
	dl := mac.Get("dl_scheduler")
	if got := dl.Get("behavior").Str(); got != "flexran.sched.pf" {
		t.Errorf("behavior = %q", got)
	}
	params := dl.Get("parameters")
	share, err := params.Get("rb_share").Floats()
	if err != nil {
		t.Fatal(err)
	}
	if len(share) != 2 || share[0] != 0.7 || share[1] != 0.3 {
		t.Errorf("rb_share = %v", share)
	}
	f, err := params.Get("fairness").Float()
	if err != nil || f != 1.0 {
		t.Errorf("fairness = %v, %v", f, err)
	}
	if got := params.Get("name").Str(); got != "premium tier" {
		t.Errorf("name = %q", got)
	}
	if got := mac.Get("ul_scheduler").Get("behavior").Str(); got != "flexran.sched.rr" {
		t.Errorf("ul behavior = %q", got)
	}
	keys := mac.Keys()
	if len(keys) != 2 || keys[0] != "dl_scheduler" || keys[1] != "ul_scheduler" {
		t.Errorf("key order = %v", keys)
	}
}

func TestParseBlockSequence(t *testing.T) {
	doc := `
vsfs:
  - name: dl_ue_sched
    behavior: remote_stub
  - name: ul_ue_sched
    behavior: local_rr
plain:
  - 1
  - 2
  - 3
`
	root, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	vsfs := root.Get("vsfs")
	if vsfs.Kind != KindSeq || vsfs.Len() != 2 {
		t.Fatalf("vsfs = %+v", vsfs)
	}
	first := vsfs.Items()[0]
	if first.Get("name").Str() != "dl_ue_sched" || first.Get("behavior").Str() != "remote_stub" {
		t.Errorf("first item = %v %v", first.Get("name").Str(), first.Get("behavior").Str())
	}
	plain := root.Get("plain")
	if plain.Len() != 3 {
		t.Fatalf("plain = %+v", plain)
	}
	v, err := plain.Items()[2].Int()
	if err != nil || v != 3 {
		t.Errorf("plain[2] = %v, %v", v, err)
	}
}

func TestScalarTypes(t *testing.T) {
	doc := `
i: 42
f: 2.5
neg: -7
t: true
y: yes
n: off
s: hello
q: "a: b # c"
`
	root, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := root.Get("i").Int(); v != 42 {
		t.Errorf("i = %d", v)
	}
	if v, _ := root.Get("f").Float(); v != 2.5 {
		t.Errorf("f = %v", v)
	}
	if v, _ := root.Get("neg").Int(); v != -7 {
		t.Errorf("neg = %d", v)
	}
	for key, want := range map[string]bool{"t": true, "y": true, "n": false} {
		if v, err := root.Get(key).Bool(); err != nil || v != want {
			t.Errorf("%s = %v, %v", key, v, err)
		}
	}
	if _, err := root.Get("s").Bool(); err == nil {
		t.Error("hello should not parse as bool")
	}
	if got := root.Get("q").Str(); got != "a: b # c" {
		t.Errorf("q = %q", got)
	}
}

func TestInlineSequences(t *testing.T) {
	root, err := Parse(`xs: [1, 2, 3]
nested: [[1, 2], [3]]
empty: []
strs: ["a, b", 'c']`)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := root.Get("xs").Floats()
	if err != nil || len(xs) != 3 || xs[2] != 3 {
		t.Errorf("xs = %v, %v", xs, err)
	}
	nested := root.Get("nested")
	if nested.Len() != 2 || nested.Items()[0].Len() != 2 {
		t.Errorf("nested = %+v", nested)
	}
	if root.Get("empty").Len() != 0 {
		t.Error("empty should have no items")
	}
	strs, err := root.Get("strs").Strings()
	if err != nil || strs[0] != "a, b" || strs[1] != "c" {
		t.Errorf("strs = %v, %v", strs, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"a:\n\tb: 1",        // tab indentation
		"a: [1, 2",          // unterminated inline seq
		"a: 1\na: 2",        // duplicate key
		"a:\n  - x\n  b: 1", // seq then map at same level
	}
	for _, doc := range bad {
		if _, err := Parse(doc); err == nil {
			t.Errorf("Parse(%q) should fail", doc)
		}
	}
}

func TestEmptyDocument(t *testing.T) {
	root, err := Parse("\n# only a comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if root.Kind != KindMap || root.Len() != 0 {
		t.Errorf("empty doc = %+v", root)
	}
}

func TestEmptyValue(t *testing.T) {
	root, err := Parse("a:\nb: 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Get("a").Str(); got != "" {
		t.Errorf("a = %q", got)
	}
}

func TestBareScalarDocument(t *testing.T) {
	root, err := Parse("just-a-scalar")
	if err != nil {
		t.Fatal(err)
	}
	if root.Kind != KindScalar || root.Str() != "just-a-scalar" {
		t.Errorf("root = %+v", root)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	root, err := Parse(policyDoc)
	if err != nil {
		t.Fatal(err)
	}
	out := Marshal(root)
	again, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	// Compare by re-marshaling: stable output implies structural equality.
	if Marshal(again) != out {
		t.Errorf("round trip unstable:\n%s\nvs\n%s", out, Marshal(again))
	}
	if again.Get("mac").Get("dl_scheduler").Get("behavior").Str() != "flexran.sched.pf" {
		t.Error("content lost in round trip")
	}
}

func TestMarshalProgrammaticBuild(t *testing.T) {
	// The controller builds policy documents with the node API.
	doc := Map().Set("mac", Map().
		Set("dl_scheduler", Map().
			Set("behavior", Scalar("flexran.sched.slice")).
			Set("parameters", Map().
				Set("rb_share", Seq(Scalar(0.4), Scalar(0.6))))))
	out := Marshal(doc)
	root, err := Parse(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	share, err := root.Get("mac").Get("dl_scheduler").Get("parameters").Get("rb_share").Floats()
	if err != nil || share[0] != 0.4 || share[1] != 0.6 {
		t.Errorf("share = %v, %v", share, err)
	}
}

func TestMarshalQuoting(t *testing.T) {
	doc := Map().Set("k", Scalar("needs: quoting"))
	out := Marshal(doc)
	if !strings.Contains(out, `"needs: quoting"`) {
		t.Errorf("special chars not quoted: %s", out)
	}
	root, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if root.Get("k").Str() != "needs: quoting" {
		t.Errorf("round trip = %q", root.Get("k").Str())
	}
}

func TestCommentStripping(t *testing.T) {
	root, err := Parse(`a: 1 # trailing
# full line
b: "#notcomment"`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := root.Get("a").Int(); v != 1 {
		t.Errorf("a = %v", v)
	}
	if got := root.Get("b").Str(); got != "#notcomment" {
		t.Errorf("b = %q", got)
	}
}

func TestDeepNesting(t *testing.T) {
	doc := "a:\n  b:\n    c:\n      d: leaf\n"
	root, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Get("a").Get("b").Get("c").Get("d").Str(); got != "leaf" {
		t.Errorf("leaf = %q", got)
	}
	// Nil-safety of Get chains on missing paths.
	if root.Get("a").Get("zzz").Get("c") != nil {
		t.Error("missing path should yield nil")
	}
}

// TestParseErrorMessages pins the exact diagnostics of every parse
// failure mode: line numbers and reasons are the user interface of the
// policy/scenario pipeline, so regressions here break operator-facing
// errors even when parsing itself still fails "correctly".
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			name: "tab indentation",
			doc:  "a:\n\tb: 1",
			want: "yamlite: line 2: tabs are not allowed in indentation",
		},
		{
			name: "duplicate key",
			doc:  "a: 1\na: 2",
			want: `yamlite: line 2: duplicate key "a"`,
		},
		{
			name: "duplicate nested key",
			doc:  "m:\n  x: 1\n  x: 2",
			want: `yamlite: line 3: duplicate key "x"`,
		},
		{
			name: "bad indentation inside map",
			doc:  "a: 1\n   b: 2",
			want: "yamlite: line 2: unexpected indentation",
		},
		{
			name: "seq item then map entry at one level",
			doc:  "a:\n  - x\n  b: 1",
			want: "yamlite: line 3: expected sequence item",
		},
		{
			name: "map entry then seq item at one level",
			doc:  "a:\n  b: 1\n  - x",
			want: "yamlite: line 3: expected 'key:' entry",
		},
		{
			name: "unterminated inline sequence",
			doc:  "a: [1, 2",
			want: `yamlite: line 1: unterminated inline sequence "[1, 2"`,
		},
		{
			name: "bad quoted string",
			doc:  `a: "unclosed`,
			want: `yamlite: line 1: bad quoted string "unclosed`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.doc)
			if err == nil {
				t.Fatalf("Parse(%q) should fail", tc.doc)
			}
			if err.Error() != tc.want {
				t.Fatalf("error = %q\n      want %q", err.Error(), tc.want)
			}
		})
	}
}

// TestScalarTypeMismatches covers the typed accessors' error paths: every
// scenario/policy knob funnels through these, so a wrong value must fail
// loudly rather than zero-fill.
func TestScalarTypeMismatches(t *testing.T) {
	root, err := Parse("num: 7\nstr: hello\nseq: [1, oops]\nmap:\n  k: v\nflag: maybe\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Get("str").Int(); err == nil {
		t.Error("Int on a non-numeric scalar should fail")
	}
	if _, err := root.Get("str").Float(); err == nil {
		t.Error("Float on a non-numeric scalar should fail")
	}
	if _, err := root.Get("map").Int(); err == nil {
		t.Error("Int on a map should fail")
	}
	if _, err := root.Get("seq").Float(); err == nil {
		t.Error("Float on a sequence should fail")
	}
	if _, err := root.Get("seq").Floats(); err == nil {
		t.Error("Floats over a sequence with a non-float item should fail")
	}
	if _, err := root.Get("num").Strings(); err == nil {
		t.Error("Strings on a scalar should fail")
	}
	if _, err := root.Get("flag").Bool(); err == nil {
		t.Error("Bool on a non-boolean scalar should fail")
	}
	if got := root.Get("flag").Str(); got != "maybe" {
		t.Errorf("Str = %q, want \"maybe\"", got)
	}
	if _, err := root.Get("missing").Int(); err == nil {
		t.Error("Int on a missing node should fail")
	}
	if _, err := root.Get("missing").Bool(); err == nil {
		t.Error("Bool on a missing node should fail")
	}
}

// TestEmptyInlineElements: empty elements of an inline sequence (trailing
// comma, double comma) stay empty scalars — the unterminated-quote guard
// must not touch them (regression: it used to index text[0] blindly).
func TestEmptyInlineElements(t *testing.T) {
	for _, doc := range []string{"a: [1, 2,]", "a: [1,,2]", "a: [ ]"} {
		root, err := Parse(doc)
		if err != nil {
			t.Errorf("Parse(%q): %v", doc, err)
			continue
		}
		if root.Get("a").Kind != KindSeq {
			t.Errorf("Parse(%q): a is not a sequence", doc)
		}
	}
}

// TestSeqItemDuplicateKey checks that a key repeated inside one sequence
// item is rejected whether the item opens on its dash line or under a bare
// dash.
func TestSeqItemDuplicateKey(t *testing.T) {
	for _, tc := range []struct{ doc, want string }{
		{"- id: 1\n  id: 2\n", `yamlite: line 2: duplicate key "id"`},
		{"s:\n  - id: 1\n    x: 0\n    id: 2\n", `yamlite: line 4: duplicate key "id"`},
		{"-\n  id: 1\n  id: 2\n", `yamlite: line 3: duplicate key "id"`},
	} {
		_, err := Parse(tc.doc)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) error = %v, want %q", tc.doc, err, tc.want)
		}
	}
	// Distinct keys on and under the dash line still merge into one item.
	n, err := Parse("- id: 1\n  x: 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if it := n.Items()[0]; it.Get("id").Str() != "1" || it.Get("x").Str() != "2" || it.Len() != 2 {
		t.Fatalf("item = %q", Marshal(it))
	}
}
