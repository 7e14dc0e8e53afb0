package vec

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// TestBlockKernelsOnWhereCPUHasAVX2 keeps a detection bug from passing as
// "no gain": where Linux reports AVX2, the block kernels must be on.
func TestBlockKernelsOnWhereCPUHasAVX2(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range bytes.Split(info, []byte("\n")) {
		name, flags, ok := bytes.Cut(line, []byte(":"))
		if !ok || string(bytes.TrimSpace(name)) != "flags" {
			continue
		}
		for _, f := range bytes.Fields(flags) {
			if string(f) == "avx2" {
				if !blockKernels {
					t.Fatal("/proc/cpuinfo lists avx2 but the block kernels are off")
				}
				return
			}
		}
		t.Skip("this CPU has no AVX2")
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
