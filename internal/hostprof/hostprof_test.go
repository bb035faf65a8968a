package hostprof

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStartRejectsUnwritablePaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing-dir", "p.out")
	if _, err := Start(bad, ""); err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("Start(unwritable cpu path) = %v, want a -cpuprofile error", err)
	}
	if _, err := Start("", bad); err == nil || !strings.Contains(err.Error(), "-memprofile") {
		t.Errorf("Start(unwritable mem path) = %v, want a -memprofile error", err)
	}
}

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
		} else if st.Size() == 0 {
			t.Errorf("%s is empty; want a profile", f)
		}
	}
}
