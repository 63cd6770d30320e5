package ntcdc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Reference
// links and autolinks are out of scope — the repo's docs use the
// inline form.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks walks every tracked markdown file and checks
// that relative links resolve to files in the repository, so docs
// cannot silently rot as files move. CI runs this in the docs job.
func TestMarkdownLinks(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS internals and generated output directories.
			if d.Name() == ".git" || d.Name() == "results" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}

	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			// External and intra-document links are not checked here.
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			// Drop anchors and URL-escaped spaces in file targets.
			if i := strings.Index(target, "#"); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s): %v", file, m[1], resolved, err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no relative links checked — the docs should cross-link (README ↔ docs/)")
	}
}

// mdName matches a markdown file name, with or without a path.
var mdName = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestGoCommentsNameExistingDocs: every markdown file a Go comment
// names exists, relative to the commenting file, the repository root
// or docs/, so a comment cannot send its reader to a document that
// was never written or has since moved.
func TestGoCommentsNameExistingDocs(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	forEachGoFile(t, fset, func(path string, f *ast.File) {
		for _, cg := range f.Comments {
			for _, name := range mdName.FindAllString(cg.Text(), -1) {
				found := false
				for _, dir := range []string{filepath.Dir(path), ".", "docs"} {
					if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(name))); err == nil {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: a comment names %s, which does not exist", fset.Position(cg.Pos()), name)
				}
				checked++
			}
		}
	})
	if checked == 0 {
		t.Error("no Go comment names a markdown file; the walk found nothing to check")
	}
}

// forEachGoFile parses, with comments, every Go file in the repository
// outside hidden directories and results/, and hands each to fn.
func forEachGoFile(t *testing.T, fset *token.FileSet, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if (path != "." && strings.HasPrefix(d.Name(), ".")) || d.Name() == "results" {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testName matches a cited test function name.
var testName = regexp.MustCompile(`\bTest[A-Z][A-Za-z0-9_]*`)

// TestCitedTestsExist: every Test… name a non-test Go comment,
// README.md or docs/*.md cites is a test function somewhere in the
// repository, so a citation cannot point its reader at a test that was
// renamed, folded into another or never written.
func TestCitedTestsExist(t *testing.T) {
	fset := token.NewFileSet()
	tests := map[string]bool{}
	type citation struct{ where, name string }
	var cited []citation
	forEachGoFile(t, fset, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					tests[fn.Name.Name] = true
				}
			}
			return
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range testName.FindAllString(c.Text, -1) {
					cited = append(cited, citation{fset.Position(c.Pos()).String(), name})
				}
			}
		}
	})
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append([]string{"README.md"}, docs...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range testName.FindAllString(line, -1) {
				cited = append(cited, citation{fmt.Sprintf("%s:%d", path, i+1), name})
			}
		}
	}
	if len(cited) == 0 {
		t.Fatal("no test citations found; the walk found nothing to check")
	}
	for _, c := range cited {
		if !tests[c.name] {
			t.Errorf("%s: cites %s, which is no test function", c.where, c.name)
		}
	}
}

// TestREADMELinksDesignDocs pins the satellite requirement that the
// architecture and trace documents are reachable from the README.
func TestREADMELinksDesignDocs(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"docs/ARCHITECTURE.md", "docs/TRACES.md", "docs/TOPOLOGY.md", "docs/DISTRIBUTED.md", "docs/SERVING.md", "docs/CARBON.md"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("README.md does not link %s", want)
		}
	}
}

// TestREADMEDocumentsRebalanceFlag pins the `-rebalance` flag row:
// the CLI's rebalance axis must stay documented in the README flag
// table with its spec grammar.
func TestREADMEDocumentsRebalanceFlag(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "`-rebalance`") {
		t.Error("README.md flag table does not document -rebalance")
	}
	if !strings.Contains(string(data), "epoch:N[@dispatcher]") {
		t.Error("README.md does not document the rebalance spec grammar epoch:N[@dispatcher]")
	}
}

// TestDocsPinCrashResume pins the crash-recovery documentation: the
// checkpoint/resume journal, blob input shipping, and worker-churn
// behaviour are user-facing contracts (flags + wire protocol), and
// both the README flag table and DISTRIBUTED.md's sections must
// survive future edits.
func TestDocsPinCrashResume(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"`-checkpoint-dir DIR`",
		"`-resume DIR`",
		"`-serve-blobs`",
	} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md flag table lost the row %q", want)
		}
	}
	dist, err := os.ReadFile("docs/DISTRIBUTED.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Checkpoint / resume",
		"## Input shipping (blobs)",
		"## Worker churn",
		"/v1/release",
		"/v1/blob",
		"scripts/resume_check.sh",
	} {
		if !strings.Contains(string(dist), want) {
			t.Errorf("docs/DISTRIBUTED.md lost the crash-resume marker %q", want)
		}
	}
}

// TestDocsPinServing pins the live-service documentation: the
// ntc-serve endpoints, the gauge names, the what-if hermeticity
// gates and the counter-reconciliation invariant are user-facing
// contracts (HTTP surface + exposition bytes), and both the README's
// ntc-serve section and SERVING.md's sections must survive future
// edits.
func TestDocsPinServing(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## cmd/ntc-serve",
		"`-tick`",
		"`-whatif-max`, `-whatif-vms`, `-whatif-workers`",
		"`-max-sessions`",
		"/v1/sessions/{id}/whatif",
		"/v1/sessions",
	} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md lost the ntc-serve marker %q", want)
		}
	}
	serving, err := os.ReadFile("docs/SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Endpoints",
		"## Sessions",
		"## Live ingestion",
		"## Gauge reference",
		"## What-if queries",
		"### Mid-replay forks",
		"## Determinism and concurrency guarantees",
		"/v1/sessions/{id}/whatif",
		"/v1/sessions/{id}/step",
		"/v1/sessions",
		"ntc_fleet_energy_mj",
		"ntc_ingest",
		"ntc_whatif_forks",
		"scenarios == executed + cache_hits",
		"scripts/serve_check.sh",
		"FuzzWhatIfDecode",
	} {
		if !strings.Contains(string(serving), want) {
			t.Errorf("docs/SERVING.md lost the marker %q", want)
		}
	}
}

// TestDocsPinCarbon pins the carbon-layer documentation: the
// power-model axis, the per-DC carbon fields, the carbon-greedy
// dispatcher and the v4 schema bump are user-facing contracts (flags,
// fleet JSON, result columns, gauge names), and CARBON.md, the
// README's flag rows and TOPOLOGY.md's fleet tables must survive
// future edits.
func TestDocsPinCarbon(t *testing.T) {
	carbon, err := os.ReadFile("docs/CARBON.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Power models (`power-model` axis)",
		"## Per-DC carbon accounting",
		"## Carbon-optimizing dispatch",
		"## Schema v4 and caching",
		"12/32/75/102% of TDP",
		"0.38 W/GB",
		"`grid_intensity`",
		"`embodied_kg_per_vcpu`",
		"`operational_gco2`",
		"`ntc_carbon_*`",
		"`carbon-greedy`",
		"`triad-carbon`",
		"`sweep-result-v4`",
		"TestPowerModelAxisChangesPricingNotPlacement",
		"TestStaleV3EntriesNeverAnswerV4",
	} {
		if !strings.Contains(string(carbon), want) {
			t.Errorf("docs/CARBON.md lost the marker %q", want)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"`-power-model`",
		"## Carbon-aware modeling",
		"docs/CARBON.md",
	} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md lost the carbon marker %q", want)
		}
	}
	topo, err := os.ReadFile("docs/TOPOLOGY.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"`carbon-greedy`",
		"`triad-carbon`",
		"`grid_intensity`",
	} {
		if !strings.Contains(string(topo), want) {
			t.Errorf("docs/TOPOLOGY.md lost the carbon marker %q", want)
		}
	}
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch), "`sweep-result-v4`") {
		t.Error("docs/ARCHITECTURE.md no longer documents the v4 schema version")
	}
}

// TestDocsPinHotLoopDesign pins the hot-loop documentation: the
// simulator's zero-alloc slot loop is a load-bearing perf contract
// (TestSlotLoopAllocationFree + the strict zero-alloc bench gate),
// and both ARCHITECTURE.md's design section and the README's perf
// claim must survive future edits.
func TestDocsPinHotLoopDesign(t *testing.T) {
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## The hot loop",
		"TestSlotLoopAllocationFree",
		"grid[LevelIndex(f)] == ClampFrequency(f)",
		"AllocateInto(dst, vms, spec)",
	} {
		if !strings.Contains(string(arch), want) {
			t.Errorf("docs/ARCHITECTURE.md lost the hot-loop design marker %q", want)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"TestSlotLoopAllocationFree",
		"allocs/op",
	} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md lost the hot-loop perf marker %q", want)
		}
	}
}

// mapPackage matches a package path in the architecture map.
var mapPackage = regexp.MustCompile(`\b(?:internal|cmd)/[a-z0-9-]+(?:/[a-z0-9-]+)*`)

// TestArchitectureMapListsEveryPackage keeps the "Package map" block
// of docs/ARCHITECTURE.md in step with the tree: it must name every
// internal/ and cmd/ directory that holds non-test Go, and nothing
// else, so a new package cannot go unmapped and a deleted one cannot
// linger.
func TestArchitectureMapListsEveryPackage(t *testing.T) {
	data, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "## Package map")
	if start < 0 {
		t.Fatal(`docs/ARCHITECTURE.md has no "## Package map" section`)
	}
	block := strings.SplitN(doc[start:], "```", 3)
	if len(block) < 3 {
		t.Fatal("the package map has no fenced block")
	}
	mapped := map[string]bool{}
	for _, p := range mapPackage.FindAllString(block[1], -1) {
		mapped[p] = true
	}

	tree := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() && name == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				tree[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(tree) == 0 {
		t.Fatal("no packages found under internal/ or cmd/")
	}
	for p := range tree {
		if !mapped[p] {
			t.Errorf("the package map does not list %s", p)
		}
	}
	for p := range mapped {
		if !tree[p] {
			t.Errorf("the package map lists %s, which holds no non-test Go", p)
		}
	}
}
