package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"hetkg/internal/dataset"
)

// partHash is the SHA-256 of EntityPart as little-endian u32s.
func partHash(part []int32) string {
	b := make([]byte, 0, 4*len(part))
	for _, p := range part {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestMetisPartitionPinned pins MetisLike's output on the dataset presets:
// placement decides which shard owns each row, so every byte count and
// every oracle downstream depends on it. A change to the partitioner's
// data structures must leave these hashes as they are; only a change of
// algorithm re-pins them (and bumps partVersion).
func TestMetisPartitionPinned(t *testing.T) {
	cases := []struct {
		dataset string
		scale   dataset.Scale
		k       int
		want    string
	}{
		{"fb15k", dataset.Tiny, 1,
			"2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8"},
		{"fb15k", dataset.Tiny, 2,
			"88e0118672f41eeb40e21f052fcec4f9f2f2d5d7d29787da175be81a540f8686"},
		{"fb15k", dataset.Tiny, 4,
			"9e03bf3e0041d94980295b565fb5e54575b15f7de96fc95af6052aee4465262b"},
		{"fb15k", dataset.Small, 1,
			"ff6698a6e831ffcf47af2fed388ffc262f319e72b26cd140929d1e19b1246ad4"},
		{"fb15k", dataset.Small, 2,
			"c2c6c657686c88b0e726393f9a396f7959af182bbeb77410a643fac5f5ffae9f"},
		{"fb15k", dataset.Small, 4,
			"7498a8babccf3f8d43bec27392b946702b92b4a48cfd51748db2e15764c3def3"},
		{"wn18", dataset.Tiny, 1,
			"1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"},
		{"wn18", dataset.Tiny, 2,
			"9f42992860d715975f871509787fbc0321faa70c7de72719d7799c0295815bd6"},
		{"wn18", dataset.Tiny, 4,
			"864fb3f0d3aeca6d20bd7a05d8aaaedab3aa0a671d38dde3fb6a9acbb46f802f"},
		{"wn18", dataset.Small, 1,
			"0c92bddb4e96f3ea9ec9f0f64a668255a6c15527ac09f6f119cafde60c7c4a39"},
		{"wn18", dataset.Small, 2,
			"e9f5f50e120c9d3e8c93c647bb3ee63fd16beb6c4917bd5e1c9916d8b013f794"},
		{"wn18", dataset.Small, 4,
			"669bc6d67377f744d22d94f4fbc029f310862d7b310370568869e49661c3961a"},
		{"freebase86m", dataset.Tiny, 1,
			"668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"},
		{"freebase86m", dataset.Tiny, 2,
			"b1f328334d61f20e73d9e6e88b3ba05844ddc7bae3c2c2be03a982bba994ee93"},
		{"freebase86m", dataset.Tiny, 4,
			"623edcd9536a3f82a8c5a3e1d8c402b30cf6eaf46f666cca18a19ac74ce4cc7a"},
		{"freebase86m", dataset.Small, 1,
			"f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc"},
		{"freebase86m", dataset.Small, 2,
			"59dbacd227300c2a8c1d608e08620454d96fec117292faf22334fbc83e277ea3"},
		{"freebase86m", dataset.Small, 4,
			"1c7784f64c2b28e05ce84f063ac58c331360aa0ce8a1ef50de4dca7ff3272064"},
		{"freebase86m", dataset.Paper, 2,
			"c6d38b4f32ada6425389ceebdefd049e708e4163a51d749daeee30e871b886f1"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s/k=%d", c.dataset, c.scale, c.k), func(t *testing.T) {
			if c.scale == dataset.Paper && testing.Short() {
				t.Skip("paper scale under -short")
			}
			g, _ := dataset.ByName(c.dataset, c.scale, 42)
			r, err := (&MetisLike{Seed: 42}).Partition(g, c.k)
			if err != nil {
				t.Fatal(err)
			}
			if got := partHash(r.EntityPart); got != c.want {
				t.Errorf("EntityPart sha256 = %s, want %s", got, c.want)
			}
		})
	}
}

// TestMetisPartitionAllocs pins the partitioner's allocations at
// tcp-hotcache's shape: a fixed set of slabs per level, none per vertex,
// so the count grows with the number of levels, not with the entities.
func TestMetisPartitionAllocs(t *testing.T) {
	allocs := func(scale dataset.Scale) float64 {
		g := dataset.Freebase86mLike(scale, 42)
		return testing.AllocsPerRun(3, func() {
			if _, err := (&MetisLike{Seed: 42}).Partition(g, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	tiny, small := allocs(dataset.Tiny), allocs(dataset.Small)
	if small > 344 {
		t.Errorf("freebase86m small, k=2: %v allocs per partition, want <= 344", small)
	}
	if small > 2*tiny {
		t.Errorf("allocs grow with the entities: %v at tiny, %v at small", tiny, small)
	}
}
