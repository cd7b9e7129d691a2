package exec

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestHistorySaveLoadRoundTrip(t *testing.T) {
	h := NewHistory()
	h.ObserveCompute("scan", 120*time.Millisecond, 4096)
	h.ObserveCompute("model", 30*time.Millisecond, 512)
	path := filepath.Join(t.TempDir(), "history.json")
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}
	h2 := NewHistory()
	if err := h2.Load(path); err != nil {
		t.Fatal(err)
	}
	d, ok := h2.Compute("scan")
	if !ok || d != 120*time.Millisecond {
		t.Errorf("compute(scan) = %v, %v", d, ok)
	}
	sz, ok := h2.Size("model")
	if !ok || sz != 512 {
		t.Errorf("size(model) = %d, %v", sz, ok)
	}
}

func TestHistoryLoadMissingFileIsNoop(t *testing.T) {
	h := NewHistory()
	if err := h.Load(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Errorf("missing file errored: %v", err)
	}
}

func TestHistoryLoadCorruptFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := NewHistory().Load(path)
	if err == nil {
		t.Fatal("corrupt history accepted")
	}
	if !errors.Is(err, ErrCorruptHistory) {
		t.Errorf("corrupt history error %v does not wrap ErrCorruptHistory", err)
	}
}

func TestHistoryLoadMerges(t *testing.T) {
	// Loading on top of live observations keeps the newer local values for
	// keys present in both? No: Load overwrites with the snapshot, by
	// design — a session loads before running anything, and later
	// observations then overwrite. Verify the merge semantics explicitly.
	h := NewHistory()
	h.ObserveCompute("a", time.Second, 1)
	path := filepath.Join(t.TempDir(), "h.json")
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}
	h2 := NewHistory()
	h2.ObserveCompute("b", 2*time.Second, 2)
	if err := h2.Load(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := h2.Compute("a"); !ok {
		t.Error("loaded key missing")
	}
	if _, ok := h2.Compute("b"); !ok {
		t.Error("pre-existing key clobbered")
	}
}

func TestHistorySaveAtomic(t *testing.T) {
	// Save must not leave a .tmp file behind.
	h := NewHistory()
	h.ObserveCompute("x", time.Millisecond, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "h.json")
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "h.json" {
		t.Errorf("unexpected files: %v", entries)
	}
}
