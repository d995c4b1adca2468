package experiments

import (
	"testing"
	"time"

	"tifs/internal/engine"
	"tifs/internal/store"
	"tifs/internal/vfs"
)

// TestFaultGoldenBytesUnderTransientStoreFaults is the paper-output face
// of the failure model: with the persistent store riding on a filesystem
// that throws bursts of transient EIO at its appends, every experiment
// still renders byte-identical to its committed golden file. Faults may
// cost retries; they may never change a digit of a table.
func TestFaultGoldenBytesUnderTransientStoreFaults(t *testing.T) {
	dir := t.TempDir()
	// Three consecutive EIO failures on a record append (within the retry
	// budget of 4 attempts), twice more over the run via later rules.
	ffs := vfs.NewFault(vfs.OS,
		vfs.Rule{Op: vfs.OpWrite, Path: "results.tifs", Nth: 2, Times: 2},
		vfs.Rule{Op: vfs.OpWrite, Path: "results.tifs", Nth: 9},
		vfs.Rule{Op: vfs.OpWrite, Path: "results.tifs", Nth: 17},
	)
	st, err := store.OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	st.Retry.Sleep = func(time.Duration) {}
	defer st.Close()
	if st.Stats().ReadOnly {
		t.Fatal("store degraded before the run started")
	}

	e := engine.New(8)
	e.SetBackend(st)
	for _, r := range Registry()[:3] {
		want := readGolden(t, r.ID)
		if got := r.Run(goldenOptions(e)); got != want {
			t.Errorf("%s: output under transient store faults diverged from golden:\n--- golden\n%s\n--- got\n%s",
				r.ID, want, got)
		}
	}
	if st.Stats().ReadOnly {
		t.Error("transient faults within the retry budget degraded the store")
	}
}
