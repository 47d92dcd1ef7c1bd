package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Each profiling flag writes a non-empty profile once the run ends.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	saved := os.Args
	defer func() { os.Args = saved }()
	os.Args = []string{"verdict-bench", "-exp", "fig5", "-cpuprofile", cpu, "-memprofile", mem}
	main()
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}
