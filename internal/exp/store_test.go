package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testRows() []Row {
	return []Row{
		{Exp: "fig1", Name: "IRN", Seed: 1, Flows: 100, AvgSlowdown: 1.5, AvgFCTms: 0.2, Drops: 3},
		{Exp: "fig1", Name: "RoCE+PFC", Seed: 1, Flows: 100, AvgSlowdown: 2.5, AvgFCTms: 0.4, PauseFrames: 9},
		{Exp: "fig9", Name: "IRN incast M=10", Seed: 10001, RCTms: 3.25, Events: 12345},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	// save → load → diff must be empty: the determinism contract the
	// cross-run comparison workflow depends on.
	st := NewStore()
	for _, r := range testRows() {
		st.Put(r)
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(st, loaded); len(d) != 0 {
		t.Fatalf("round-trip diff not empty: %v", d)
	}
	if !reflect.DeepEqual(st.Rows(), loaded.Rows()) {
		t.Fatal("round-trip rows differ")
	}
}

func TestStorePutReplacesByKey(t *testing.T) {
	st := NewStore()
	r := testRows()[0]
	st.Put(r)
	r.AvgSlowdown = 9
	st.Put(r)
	if st.Len() != 1 {
		t.Fatalf("len = %d, want 1", st.Len())
	}
	if got := st.Rows()[0].AvgSlowdown; got != 9 {
		t.Errorf("replacement lost: avg_slowdown = %v", got)
	}
}

func TestStoreMergeAndDiff(t *testing.T) {
	a, b := NewStore(), NewStore()
	rows := testRows()
	a.Put(rows[0])
	a.Put(rows[1])
	b.Put(rows[1])
	changed := rows[0]
	changed.AvgSlowdown += 1
	b.Put(changed)
	b.Put(rows[2])

	diffs := Diff(a, b)
	if len(diffs) != 2 {
		t.Fatalf("diffs = %v, want metric change + extra row", diffs)
	}

	// Merge b into a: b wins on collisions, diff against b goes quiet.
	if n := a.Merge(b); n != 3 {
		t.Errorf("merged %d rows, want 3", n)
	}
	if d := Diff(a, b); len(d) != 0 {
		t.Errorf("post-merge diff not empty: %v", d)
	}
}

func TestStoreRestrict(t *testing.T) {
	a, b := NewStore(), NewStore()
	rows := testRows()
	for _, r := range rows {
		a.Put(r)
	}
	b.Put(rows[1])
	sub := a.Restrict(b)
	if sub.Len() != 1 || sub.Rows()[0].Key() != rows[1].Key() {
		t.Fatalf("Restrict = %v, want only %q", sub.Rows(), rows[1].Key())
	}
	// Diffing a partial rerun through Restrict is quiet when it matches.
	if d := Diff(a.Restrict(b), b); len(d) != 0 {
		t.Errorf("restricted diff not empty: %v", d)
	}
}

func TestFingerprintSeparatesConfigs(t *testing.T) {
	base := Scenario{NumFlows: 100, Seed: 1}
	if Fingerprint(base) != Fingerprint(base) {
		t.Fatal("fingerprint not stable")
	}
	variants := []Scenario{
		{NumFlows: 200, Seed: 1},
		{NumFlows: 100, Seed: 1, PFC: true},
		{NumFlows: 100, Seed: 1, Transport: TransportRoCE},
		{NumFlows: 100, Seed: 1, Load: 0.9},
	}
	for _, v := range variants {
		if Fingerprint(v) == Fingerprint(base) {
			t.Errorf("config %+v fingerprints like the base scenario", v)
		}
	}
}

// TestFingerprintPinned pins one fingerprint to its literal value. The
// fingerprint hashes the normalized Scenario's JSON, so adding, removing
// or renaming any Scenario field moves every stored row's key at once
// and leaves older result stores unmatched under -diff. A change here
// must be deliberate and noted alongside the store format.
func TestFingerprintPinned(t *testing.T) {
	if got, want := Fingerprint(Scenario{NumFlows: 100, Seed: 1}), "27f78f8f"; got != want {
		t.Fatalf("Fingerprint = %s, want %s: the Scenario JSON changed shape", got, want)
	}
}

func TestSaveMergedAccumulates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acc.json")
	rows := testRows()

	first := NewStore()
	first.Put(rows[0])
	if n, err := first.SaveMerged(path); err != nil || n != 1 {
		t.Fatalf("first SaveMerged = %d, %v", n, err)
	}
	second := NewStore()
	second.Put(rows[1])
	second.Put(rows[2])
	if n, err := second.SaveMerged(path); err != nil || n != 3 {
		t.Fatalf("second SaveMerged = %d, %v; want 3 accumulated rows", n, err)
	}
	loaded, err := LoadStore(path)
	if err != nil || loaded.Len() != 3 {
		t.Fatalf("loaded %d rows (%v), want 3", loaded.Len(), err)
	}
}

func TestLoadOrNewStoreMissingFile(t *testing.T) {
	st, err := LoadOrNewStore(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || st.Len() != 0 {
		t.Fatalf("LoadOrNewStore = %v, %v; want empty store", st, err)
	}
}

func TestStoreFleetRoundTrip(t *testing.T) {
	// End-to-end: fleet run → store → save → load → diff empty, and a
	// rerun of the same fleet persists to identical rows.
	e := fleetExperiment()
	cfg := FleetConfig{Parallel: 4, Trials: 2, BaseSeed: 3}

	st := NewStore()
	st.PutFleet(RunFleet(e, cfg))
	if st.Len() != len(e.Scenarios)*cfg.Trials {
		t.Fatalf("len = %d, want %d", st.Len(), len(e.Scenarios)*cfg.Trials)
	}

	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(st, loaded); len(d) != 0 {
		t.Fatalf("round-trip diff not empty: %v", d)
	}

	rerun := NewStore()
	rerun.PutFleet(RunFleet(e, cfg))
	if d := Diff(loaded, rerun); len(d) != 0 {
		t.Fatalf("rerun diff not empty: %v", d)
	}
}

func TestStoreSchemaMigration(t *testing.T) {
	dir := t.TempDir()

	// A v1 file — written before the version field and the sketch
	// existed — must load cleanly, with the v2 columns simply absent.
	v1 := filepath.Join(dir, "v1.json")
	old := `{"rows":[{"exp":"fig1","name":"IRN","seed":1,"trial":0,"cfg":"deadbeef",` +
		`"flows":100,"incomplete":0,"avg_slowdown":1.5,"avg_fct_ms":0.2,"p99_fct_ms":0.9,` +
		`"drops":3,"pause_frames":0,"ecn_marked":0,"retransmits":0,"timeouts":0,"events":42}]}`
	if err := os.WriteFile(v1, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadStore(v1)
	if err != nil {
		t.Fatalf("v1 store must load: %v", err)
	}
	rows := st.Rows()
	if len(rows) != 1 || rows[0].Flows != 100 || rows[0].FCTSketch != nil || rows[0].P50FCTms != 0 {
		t.Fatalf("migrated row wrong: %+v", rows)
	}

	// Re-saving upgrades the envelope to the current version.
	if err := st.Save(v1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 2`) {
		t.Error("re-saved store must carry the current schema version")
	}

	// A file from a future schema must refuse to load rather than be
	// silently misread.
	future := filepath.Join(dir, "future.json")
	if err := os.WriteFile(future, []byte(`{"version":3,"rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStore(future); err == nil {
		t.Fatal("want error loading a v3 store")
	}
}

func TestStoreSketchRoundTrip(t *testing.T) {
	// A real run's sketch must survive save → load bucket for bucket —
	// Diff compares it with DeepEqual, so any codec loss shows up here.
	e, _ := ByID("fig1", Scale{Flows: 30, IncastBytes: 1, IncastReps: 1})
	res := Run(e.Scenarios[0])
	if res.FCTSketch == nil || res.FCTSketch.N() == 0 {
		t.Fatal("run produced no sketch")
	}
	st := NewStore()
	st.Put(RowFromResult("fig1", 0, res))
	path := filepath.Join(t.TempDir(), "sketch.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(st, loaded); len(d) != 0 {
		t.Fatalf("sketch round-trip diff: %v", d)
	}
	got := loaded.Rows()[0].FCTSketch
	if !reflect.DeepEqual(got, res.FCTSketch) {
		t.Fatal("sketch buckets diverged through the store")
	}
	if got.Quantile(99) != res.FCTSketch.Quantile(99) {
		t.Fatal("persisted sketch answers a different p99")
	}
}
