// Package hashx implements the two hash functions I-SPY uses to compress
// basic-block addresses into the n-bit context hash of Cprefetch/CLprefetch
// instructions (§III-A): FNV-1 and MurmurHash3. Both are written from
// scratch; the standard library's hash/fnv is deliberately not used so the
// hardware-facing bit selection is fully explicit and testable.
package hashx

// FNV-1 64-bit parameters (Fowler–Noll–Vo, 1991).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FNV1a64 hashes b with 64-bit FNV-1a (xor-then-multiply variant).
func FNV1a64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// FNV1_64 hashes b with classic 64-bit FNV-1 (multiply-then-xor), the
// variant the paper names.
func FNV1_64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h *= fnvPrime64
		h ^= uint64(c)
	}
	return h
}

// FNV1U64 hashes a uint64 (e.g. a basic-block address) with FNV-1 by feeding
// its 8 little-endian bytes.
func FNV1U64(v uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h *= fnvPrime64
		h ^= v & 0xff
		v >>= 8
	}
	return h
}

// Murmur3Fmix64 is MurmurHash3's 64-bit finalizer (fmix64). It is a strong
// bijective mixer and is the form of "MurmurHash3" a hardware hasher of a
// single 64-bit address would implement.
func Murmur3Fmix64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Uniform maps (seed, site, n) to [0,1) deterministically: the site name's
// FNV-1a digest and the counter are folded into the seed and mixed with the
// splitmix64 finalizer. The fault injector's firing decisions and the retry
// layer's backoff jitter both draw from it, so a chaos run replays exactly
// under the same seed.
func Uniform(seed uint64, site string, n uint64) float64 {
	x := seed ^ FNV1a64([]byte(site)) ^ (n * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Murmur3_32 implements the full 32-bit MurmurHash3 (x86_32 variant) over a
// byte slice with the given seed.
func Murmur3_32(b []byte, seed uint32) uint32 {
	const (
		c1 = 0xcc9e2d51
		c2 = 0x1b873593
	)
	h := seed
	n := len(b)
	// Body: 4-byte chunks.
	for len(b) >= 4 {
		k := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
		b = b[4:]
		k *= c1
		k = k<<15 | k>>17
		k *= c2
		h ^= k
		h = h<<13 | h>>19
		h = h*5 + 0xe6546b64
	}
	// Tail.
	var k uint32
	switch len(b) {
	case 3:
		k ^= uint32(b[2]) << 16
		fallthrough
	case 2:
		k ^= uint32(b[1]) << 8
		fallthrough
	case 1:
		k ^= uint32(b[0])
		k *= c1
		k = k<<15 | k>>17
		k *= c2
		h ^= k
	}
	// Finalizer.
	h ^= uint32(n)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// BlockBits maps a basic-block address to its single set bit within an
// nbits-wide context hash. Per the paper's Fig. 6/7 example ("assume the
// 16-bit hashes of B and E are 0x2 and 0x10"), each block contributes one
// bit; both hash functions participate by composition (MurmurHash3's
// finalizer over the FNV-1 digest selects the bit). One bit per block also
// matches Fig. 7's overflow argument: 32 LBR entries bound every 6-bit
// counter at 32 < 63.
//
// The same function drives both the offline encoder (building Cprefetch's
// context-hash immediate) and the runtime counting Bloom filter, so offline
// and runtime views of a block always agree.
//
// nbits must be a power of two in [2, 64].
func BlockBits(addr uint64, nbits int) uint64 {
	return 1 << BlockBitIndex(addr, nbits)
}

// BlockBitIndex returns the bit index BlockBits sets for addr.
func BlockBitIndex(addr uint64, nbits int) int {
	return int(Murmur3Fmix64(FNV1U64(addr)) & uint64(nbits-1))
}

// BlockBitIndices returns the bit indices BlockBits sets for addr (always
// one element; kept as a slice for the counting filter's loop).
func BlockBitIndices(addr uint64, nbits int) []int {
	return []int{BlockBitIndex(addr, nbits)}
}

// ContextHash ORs the BlockBits signatures of every address in blocks,
// producing the context-hash immediate encoded into a Cprefetch/CLprefetch
// instruction for that predecessor-block set.
func ContextHash(blocks []uint64, nbits int) uint64 {
	var h uint64
	for _, a := range blocks {
		h |= BlockBits(a, nbits)
	}
	return h
}

// IsPow2 reports whether v is a power of two.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }
