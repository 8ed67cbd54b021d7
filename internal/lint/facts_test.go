package lint

import (
	"testing"
)

const (
	leafPath = "flowdifflint-testdata/facts/leaf"
	rootPath = "flowdifflint-testdata/facts/root"
)

// loadFixture loads the two-package facts fixture (leaf first, so root
// can import it by its pretend path).
func loadFixture(t *testing.T) (leaf, root *Package) {
	t.Helper()
	l := NewLoader()
	var err error
	leaf, err = l.LoadDir("testdata/src/facts/leaf", leafPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaf.TypeErrors) > 0 {
		t.Fatalf("leaf does not type-check: %v", leaf.TypeErrors[0])
	}
	root, err = l.LoadDir("testdata/src/facts/root", rootPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.TypeErrors) > 0 {
		t.Fatalf("root does not type-check: %v", root.TypeErrors[0])
	}
	return leaf, root
}

// Facts must come out identical whichever order the packages are
// passed in: BuildFacts owns the dependency sort.
func TestFactPropagationOrder(t *testing.T) {
	leaf, root := loadFixture(t)
	for name, pkgs := range map[string][]*Package{
		"deps-first": {leaf, root},
		"deps-last":  {root, leaf},
	} {
		t.Run(name, func(t *testing.T) {
			f := BuildFacts(pkgs)
			order := f.PackageOrder()
			if len(order) != 2 || order[0] != leafPath || order[1] != rootPath {
				t.Fatalf("package order = %v, want [%s %s]", order, leafPath, rootPath)
			}
			assertFixtureFacts(t, f)
		})
	}
}

func assertFixtureFacts(t *testing.T, f *Facts) {
	t.Helper()
	wrapped := map[string]bool{
		leafPath + ".Fail":    true,
		leafPath + ".Bad":     false,
		rootPath + ".Wraps":   true,
		rootPath + ".BadWrap": false,
	}
	for id, want := range wrapped {
		s := f.Func(FuncID(id))
		if s == nil {
			t.Fatalf("no summary for %s", id)
		}
		if s.SentinelWrapped != want {
			t.Errorf("SentinelWrapped(%s) = %v, want %v", id, s.SentinelWrapped, want)
		}
	}
}
