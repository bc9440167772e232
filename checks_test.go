//go:build !starlink.nobatch

package starlink_test

// The repository's own checks are two tables. gates pairs each patch
// under testdata/gate/, which brings back one fault, with the test that
// must fail on it; the patch reaches the build through -overlay, so the
// checkout never changes and no package built beside the check sees it.
// tombstones holds the names PRs deleted on purpose, with the PR and the
// reason; a row goes only with a CHANGES.md line naming the test that
// now holds its property. The checks are of the tree, not of one build,
// and the gate runs take no build tags from this one: the
// starlink.nobatch build leaves the file out.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// gate is one mutation and the test it must turn red.
type gate struct {
	patch string   // testdata/gate/<patch>.patch; it may touch .go files only
	pkg   string   // the package of the test
	test  string   // the test that must fail; "" only builds pkg patched
	want  []string // regexps the failing run's output must each match
	flags []string // further go test flags of the failing run
}

var gates = []gate{
	{"alloc-on-xml-entity", "./internal/parser", "TestParseHTTPOkEntityAllocs", []string{"--- FAIL: TestParseHTTPOkEntityAllocs"}, nil},
	// A read loop releases a buffer twice and panics, so the run ends
	// without a "--- FAIL" line.
	{"lease-flag-on-buffer", "./internal/realnet", "TestTwoSocketsReleaseLeasesAtOnce", []string{"released twice|second owner"}, nil},
	{"goroutine-in-sim-callback", ".", "TestDSTHashes", []string{"--- FAIL: TestDSTHashes"}, nil},
	{"errors-is-not-exist", "./internal/registry", "TestLoadFSMissingAndBadDocs", []string{"--- FAIL: TestLoadFSMissingAndBadDocs"}, nil},
	{"metric-without-series", ".", "TestEveryMetricIsASeries", []string{"--- FAIL: TestEveryMetricIsASeries", "Redelivered"}, nil},
	{"message-on-parse-error", "./internal/dst", "TestRunInvariantsHold", []string{"message-balance"}, nil},
	{"message-on-refuse", "./internal/dst", "TestRunInvariantsHold", []string{"message-balance"}, nil},
	{"lease-on-suppressed", "./internal/dst", "TestRunInvariantsHold", []string{"lease-balance"}, nil},
	// The patched engine parses a view the simulator reuses, so what it
	// reads depends on goroutine timing; on more than one CPU the run
	// may instead panic in the dispatcher before any expectation prints.
	{"data-without-lease", "./internal/dst", "TestRunInvariantsHold", []string{"expectations"}, []string{"-cpu=1"}},
	// Red only under the repository benchmark (cmd/benchgate's
	// allocs_per_interaction row), which CI runs.
	{"one-alloc-per-session", "./internal/engine", "", nil, nil},
}

// TestGatesTurnRed runs each gate's test with its patch applied and
// requires it to fail with the expected text. Every patch under
// testdata/gate/ needs a row.
func TestGatesTurnRed(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git is not on PATH: the gate patches are applied with git apply")
	}
	if patches, _ := filepath.Glob(filepath.Join("testdata", "gate", "*.patch")); len(patches) != len(gates) {
		t.Errorf("%d patches under testdata/gate/, %d rows in gates: each patch needs one", len(patches), len(gates))
	}
	for _, g := range gates {
		t.Run(g.patch, func(t *testing.T) {
			overlay := "-overlay=" + applyGate(t, g.patch)
			if g.test == "" {
				if out, err := exec.Command("go", "build", overlay, g.pkg).CombinedOutput(); err != nil {
					t.Fatalf("%s does not build with %s.patch applied: %v\n%s", g.pkg, g.patch, err, out)
				}
				return
			}
			args := append([]string{"test", overlay, "-count=1", "-v", "-run", "^" + g.test + "$"}, g.flags...)
			out, err := exec.Command("go", append(args, g.pkg)...).CombinedOutput()
			switch {
			case err == nil:
				t.Fatalf("%s passed with %s.patch applied\n%s", g.test, g.patch, out)
			case !bytes.Contains(out, []byte("=== RUN   "+g.test)):
				t.Fatalf("%s did not run\n%s", g.test, out)
			}
			for _, w := range g.want {
				line := regexp.MustCompile(`(?m)^.*(?:` + w + `).*$`).Find(out)
				if line == nil {
					t.Errorf("%s failed without %q\n%s", g.test, w, out)
					continue
				}
				t.Logf("red: %s", bytes.TrimSpace(line))
			}
		})
	}
}

// applyGate applies testdata/gate/<name>.patch to copies of the files
// it names, in a temporary directory, and returns an -overlay file that
// maps each file to its patched copy.
func applyGate(t *testing.T, name string) string {
	t.Helper()
	patch, err := os.ReadFile(filepath.Join("testdata", "gate", name+".patch"))
	if err != nil {
		t.Fatal(err)
	}
	stale := "the lines it patches moved: redo its edit on a scratch copy of the tree and regenerate the patch with `git diff`"
	dir := t.TempDir()
	replace := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^\+\+\+ b/(\S+)$`).FindAllSubmatch(patch, -1) {
		file := filepath.FromSlash(string(m[1]))
		if filepath.Ext(file) != ".go" {
			t.Fatalf("%s.patch touches %s: an overlay reaches the build only, so a gate patches .go files only", name, file)
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s.patch no longer applies (%v): %s", name, err, stale)
		}
		dst := filepath.Join(dir, file)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, src, 0o644); err != nil {
			t.Fatal(err)
		}
		replace[file] = dst
	}
	cmd := exec.Command("git", "apply")
	cmd.Dir, cmd.Stdin = dir, bytes.NewReader(patch)
	// Keep git from finding a repository above the copies: inside one it
	// would patch paths relative to that repository's root.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(dir))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%s.patch no longer applies: %s\n%s", name, stale, out)
	}
	js, _ := json.Marshal(map[string]any{"Replace": replace})
	overlay := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlay, js, 0o644); err != nil {
		t.Fatal(err)
	}
	return overlay
}

// tombstone is a name a PR deleted on purpose: no tracked file that
// paths (git pathspecs) select may match re, an extended regexp as
// `git grep -E` reads it, again; where re is empty no such file may
// exist.
type tombstone struct {
	re    string
	paths []string
	pr    int
	why   string
}

var (
	goFiles  = []string{"*.go"}
	nonTests = []string{"*.go", ":!*_test.go"}
)

var tombstones = []tombstone{
	{`starlink:hotpath|lint:ignore|starlink-vet|internal/analysis`, goFiles, 42, "properties are held by tests that run: the analyzer package, its vettool, the hot-path directive and the suppression comment stay gone"},
	{`runOwnership|buildCFG|LeaseCheck|PoolCheck`, goFiles, 41, "one owner and one end per lease and per message, held by the DST lease-balance and message-balance invariants, not a static dataflow"},
	{`provision\.LoadDir|models\.(MDLs|Automata|MergedAutomata)|sameDoc|fileStamp|changedLocked`, goFiles, 26, "models are files loaded by registry.LoadFS, compared byte for byte, with one change detector"},
	{`starlink/internal/core|obsMu|WithSessionObserver|WithTrialParseOnly`, goFiles, 14, "one event sink, one snapshot, one owner: the facade, the per-layer observer mutexes and the option aliases stay gone"},
	{`SetBatchIO|batchDisabled|useBatchIO|readLoopSerial`, goFiles, 15, "one UDP read loop; the starlink.nobatch build tag is the only selector"},
	{`detachedNode|gatedNode|EndpointDetacher|FlowLimiter|noTracker|LeaseBatch|WithShardCount`, goFiles, 21, "one node contract: netapi.Mode and methods of netapi.Node, no wrapper node types or sniffed interfaces"},
	{`engine\.Deploy\(|StartManaged|engine\.WithContext`, goFiles, 29, "one way to deploy: a bridge is provision.Deploy of one case; engines bind no entry socket"},
	{`protoSignature|deriveSignature|DeriveSignatureInfo|SignatureInfo|classifySlow|sigOK`, goFiles, 33, "one rule evaluator: parser.Classify is the dispatcher's and mdlc lint's classifier"},
	{`decodeXMLLeaves|wqueue|wqspare|maxRecycledChunk`, nonTests, 37, "the XML scanner decides every body (encoding/xml is FuzzXMLBody's oracle only), and stream sends take turns"},
	{`ShedMode|ShedPolicy|RejectNew|DeferOnly|WithWatermarks|WithLeasedDelivery|simnet\.WithStart|StreamFlushChunks|shed-policy|lane-capacity|watermark-(high|low)`, goFiles, 44, "one way to run: oldest-first shedding at the built-in lane bounds, workers from GOMAXPROCS, every datagram leased"},
	{`observed_sessions_total|classifications_total|dropReasons|c\.started|c\.classified|counters\.FastPath|lossProb`, goFiles, 35, "counted once: the Collector reads Metrics() at scrape, FastPath is a sum, the fault plane's Loss is simnet's only loss"},
	{`&message.Field\{`, []string{"internal/*.go", ":!*_test.go"}, 40, "every field the data path builds comes from its message"},
	{`func NewField\(\)|fieldPool|\(f \*Field\) Release|\(f \*Field\) Clone|AsBytes|returns-pooled`, goFiles, 40, "a field ends with its message: no field pool, per-field Release or Clone"},
	{`indexThreshold|composePlan|ruleLabelFor|textFixed|siblingSizeOwner|fnv32a|Cancel\(id TimerID\)`, goFiles, 27, "a codec's field table is built when it is; no per-arm timers, label index or string routing key"},
	{`func \(r \*Reader\) ReadAll|strings\.Join\(labels`, []string{"internal/bitio", "internal/types", "internal/parser"}, 31, "one copy per received message: decoded values are substrings of it"},
	{`MandatoryFields|markMandatory|\.Mandatory = true|f\.Type, f\.Length|BytesView\(\) \(\[\]byte`, goFiles, 38, "a field is a label and a value; a bytes value is a substring of the copy"},
	{`map\[string\]`, []string{"internal/engine/session.go"}, 19, "a session is slot arrays: no map, no per-session string key"},
	{`AcquireWriter|ReleaseWriter|writerPool|AppendBytes`, goFiles, 49, "the composer writes into the caller's buffer: no pooled bit writer, no copy out of one"},
	{`shardBits|shardCount|type shard struct`, []string{"internal/hist"}, 50, "one table per histogram; a snapshot is one copy"},
	{``, []string{"BENCH_PR*"}, 17, "one measuring system: the per-PR benchmark captures stay gone"},
	{`benchdiff|max-regress|BENCH_PR`, []string{"*.go", "*.md", "*.sh", ":!CHANGES.md", ":!ROADMAP.md", ":!ISSUE.md", ":!results"}, 17, "one measuring system: the comparator and its percentage gates stay gone"},
}

// TestTombstones holds the documents to their budgets, and fails when
// a deleted name comes back to a tracked file.
func TestTombstones(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// A CHANGES.md entry is one line a reader of `git log` takes in;
	// tables and run logs go to results/PR<n>.md.
	for i, line := range bytes.Split(read("CHANGES.md"), []byte("\n")) {
		if len(line) > 3300 {
			t.Errorf("CHANGES.md:%d: %d B, over the 3300 B an entry may take", i+1, len(line))
		}
	}
	// README.md and DESIGN.md describe one codebase: each mechanism is
	// owned by one and linked from the other, so the pair has a budget.
	if lines := bytes.Count(append(read("README.md"), read("DESIGN.md")...), []byte("\n")); lines > 1600 {
		t.Errorf("README.md + DESIGN.md: %d lines, over their budget of 1600", lines)
	}

	if err := exec.Command("git", "rev-parse", "--is-inside-work-tree").Run(); err != nil {
		t.Skipf("not in a git work tree (%v): the tombstones are searched in the tracked files", err)
	}
	for _, ts := range tombstones {
		args := []string{"ls-files"}
		if ts.re != "" {
			args = []string{"grep", "-nE", ts.re}
		}
		args = append(append(append(args, "--"), ts.paths...), ":!checks_test.go")
		var stderr bytes.Buffer
		cmd := exec.Command("git", args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		switch {
		case ts.re != "" && cmd.ProcessState != nil && cmd.ProcessState.ExitCode() == 1:
			continue // git grep found nothing
		case err != nil:
			t.Fatalf("git %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if line != "" {
				t.Errorf("%s: deleted in PR %d (%s)", line, ts.pr, ts.why)
			}
		}
	}
}
