package journal

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wire"
)

func openFile(t *testing.T, dir string, snapEvery int) *Journal {
	t.Helper()
	store, err := NewFileStore(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := New(store, Options{SnapEvery: snapEvery})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestFileStoreReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	j := openFile(t, dir, 0)
	j.BeginEpoch()
	drive(j)
	want := j.State()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	re := openFile(t, dir, 0)
	defer re.Close()
	if !re.Loaded() {
		t.Fatal("reopened journal reports no state")
	}
	if !want.Equal(re.State()) {
		t.Fatalf("reopened state differs:\nwant %+v\ngot  %+v", want, re.State())
	}
	if re.Seq() != j.Seq() || re.Epoch() != j.Epoch() {
		t.Fatalf("position differs: (%d,%d) vs (%d,%d)", re.Epoch(), re.Seq(), j.Epoch(), j.Seq())
	}
}

func TestFileStoreCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	j := openFile(t, dir, 4) // compact every 4 records
	j.BeginEpoch()
	drive(j)
	want := j.State()
	j.Close()

	// The log must have been folded down.
	info, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 4*256 {
		t.Fatalf("log suspiciously large after compaction: %d bytes", info.Size())
	}
	re := openFile(t, dir, 4)
	defer re.Close()
	if !want.Equal(re.State()) {
		t.Fatal("compacted reopen diverges")
	}
}

func TestFileStoreTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	j := openFile(t, dir, 0)
	j.BeginEpoch()
	drive(j)
	wantSeq := j.Seq()
	j.Close()

	// Simulate a torn final write: chop bytes off the log tail.
	logPath := filepath.Join(dir, logName)
	buf, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, buf[:len(buf)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	re := openFile(t, dir, 0)
	if re.Seq() != wantSeq-1 {
		t.Fatalf("recovered to seq %d, want %d (last whole record)", re.Seq(), wantSeq-1)
	}
	// The torn bytes must be gone from disk: appending a record and
	// reopening must replay cleanly past the old tear.
	re.GroupUpdate(time.Minute, ip(7, 7), 1, addr(7, 7), []wire.Member{mem(7, 7, "t7")})
	want := re.State()
	re.Close()
	re2 := openFile(t, dir, 0)
	defer re2.Close()
	if !want.Equal(re2.State()) {
		t.Fatal("replay after torn-tail repair diverges")
	}
	if re2.State().Groups[ip(7, 7)] == nil {
		t.Fatal("post-repair append lost")
	}
}

func TestFileStoreCorruptMiddleTruncatesFromThere(t *testing.T) {
	dir := t.TempDir()
	j := openFile(t, dir, 0)
	j.BeginEpoch()
	drive(j)
	j.Close()

	logPath := filepath.Join(dir, logName)
	buf, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the log: every record from the damaged
	// frame on is unusable, but the prefix must still replay.
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(logPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openFile(t, dir, 0)
	defer re.Close()
	if re.Seq() == 0 || re.Seq() >= j.Seq() {
		t.Fatalf("recovered seq %d, want a non-empty strict prefix of %d", re.Seq(), j.Seq())
	}
}

func TestFileStoreCorruptSnapshotDropsLog(t *testing.T) {
	dir := t.TempDir()
	j := openFile(t, dir, 3) // force a snapshot
	j.BeginEpoch()
	drive(j)
	j.Close()

	snapPath := filepath.Join(dir, snapName)
	buf, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(snapPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// Without its baseline the compacted log is meaningless: the journal
	// must come up empty rather than fold deltas onto nothing.
	re := openFile(t, dir, 3)
	defer re.Close()
	if re.Loaded() {
		t.Fatalf("journal trusted a log whose snapshot baseline is corrupt (seq %d)", re.Seq())
	}
}

func TestFileStoreEmptyDirIsFresh(t *testing.T) {
	j := openFile(t, t.TempDir(), 0)
	defer j.Close()
	if j.Loaded() || j.Seq() != 0 || j.Epoch() != 0 {
		t.Fatal("fresh dir reports state")
	}
}

// A snapshot's collection counts do not wrap at 65 536 entries: a state
// of 70 000 adapters, the scale one Central is sized for, survives a
// snapshot write and reload intact instead of loading as absent.
func TestFileStoreSnapshotBeyondU16Counts(t *testing.T) {
	const adapters = 70000
	st := NewState()
	for n := 0; n < adapters; n++ {
		st.Adapters[bigIP(n)] = AdapterState{Member: bigMember(n), Alive: n%3 != 0, Group: bigIP(n &^ 63)}
	}
	store, err := NewFileStore(t.TempDir(), FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.SetSnapshot(Snapshot{Epoch: 3, Seq: 9, State: st}); err != nil {
		t.Fatal(err)
	}
	snap, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.State == nil {
		t.Fatalf("a %d-adapter snapshot loaded as absent", adapters)
	}
	if snap.Epoch != 3 || snap.Seq != 9 || !st.Equal(snap.State) {
		t.Fatalf("reloaded snapshot differs: epoch %d seq %d, %d adapters", snap.Epoch, snap.Seq, len(snap.State.Adapters))
	}
}
