package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzScenarioParse checks that Parse never panics, whatever the document,
// and that every error it returns carries the "scenario: " prefix.
func FuzzScenarioParse(f *testing.F) {
	f.Add(minimalDoc)
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		doc, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(doc))
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if _, err := Parse(doc); err != nil && !strings.HasPrefix(err.Error(), "scenario: ") {
			t.Fatalf("error lacks the scenario prefix: %q", err)
		}
	})
}
