package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"tifs/internal/isa"
)

// digestEvents is how many events of each core TestEventStreamDigests
// hashes.
const digestEvents = 200_000

// wantStreamDigests pins the first digestEvents events of every core of
// every workload at small and medium scale (4 cores each), followed by the
// core's cfg.ExecStats after those events. Every field of every
// isa.BlockEvent goes into the hash, so any change to the program
// builder, the executor's walk, or the order of its random draws changes
// a digest.
var wantStreamDigests = map[string]string{
	"OLTP-DB2/small/core0":     "4e76dcb170ec5c26514f620e7246ffae5c4faee6002a2a1e1d73a35c156c2ab1",
	"OLTP-DB2/small/core1":     "76ace50a89fd34de29755549384921762dcd5602525c9fd3575175ce3f8d831d",
	"OLTP-DB2/small/core2":     "cd583ba867983bcd4f7be8fa4856d3595a844a98bc2757f710a8b208b18b8359",
	"OLTP-DB2/small/core3":     "27a210801cb4cf3104d31732c0aa2d150d88e90395c4c739206b6015d0333c14",
	"OLTP-Oracle/small/core0":  "022a14aee83386e3d7368c5fb576e5c8e7e92ac7a0e4c9c1f08ca562cbc829d0",
	"OLTP-Oracle/small/core1":  "4d8f93ebf0884db01043ca9622dc25671ac9ff41840b964ed32b50d6c5e15fe9",
	"OLTP-Oracle/small/core2":  "985dfa533d026f80c87e71b9c3fe8938e4cc1dc2d78bdac9caa175e868bfbe27",
	"OLTP-Oracle/small/core3":  "d1800ee7a04d5a60364b6d66844dfaf3eb6d241e0aae6db8c87cd5434f9a8038",
	"DSS-Qry2/small/core0":     "6159bc380fd15d5d6014baed91f8dae81c7040b92b1a015fe2b2b0092685344e",
	"DSS-Qry2/small/core1":     "4233923646c29f00369c0f88f8e96e0b8c0017791a4ecb6b593a8faa656a059e",
	"DSS-Qry2/small/core2":     "48293e94e788b1c9ad0868bb42c47a2371e3a22c83807d66d0aaa3f702703ff1",
	"DSS-Qry2/small/core3":     "3b701ab8123c817b2d9affebafdf2a49563b559e8c2a0fe2f6d3f5e123b8eeef",
	"DSS-Qry17/small/core0":    "b83834d9da0b65858d997c3a69e6f198714a38f70e48bdb5f79afd4df5e1f54a",
	"DSS-Qry17/small/core1":    "5c7aa7a2f8ba319ef2c26e01d55463b01451829b285b0ae117501d318bd5cd7a",
	"DSS-Qry17/small/core2":    "117985222ba4464fd7e3399b1d9bd397bd41f6cbf9bb4ea95729fa1844a43c8e",
	"DSS-Qry17/small/core3":    "383335a15addcc1ce4c721b8f84c14481fdb3122ab5e5fab5df8b7dbeae65dcd",
	"Web-Apache/small/core0":   "8870628a70823f822d0a8540ecbf43f8cd309b61234419d99e1c816db70233ea",
	"Web-Apache/small/core1":   "ea541b7fd7eaaf77fd855b01da33055fd284312c2de61512e0f551a11979ce1b",
	"Web-Apache/small/core2":   "ccd3c4fb66b6d8ac5c5817ddda71c604dff6272b8c47ff3da3f83ffd87bd591a",
	"Web-Apache/small/core3":   "26f50dab1aacc48ece8d40aa6eeb3a22770d2236e3389d30290248deb5b6b876",
	"Web-Zeus/small/core0":     "8a982d277f7e23ec5b4d58910296c10dfed198001c0ad856609ec5ec33bc3b1a",
	"Web-Zeus/small/core1":     "897eaaaa428ca0a0ca8e6d665ae7d0b20150a6eb577d7ec18039941c25afb434",
	"Web-Zeus/small/core2":     "27295192f110bfaf33bfd557cc1b4c757acfc26c0729d19fb9dea5f0a9711246",
	"Web-Zeus/small/core3":     "81a7f8af868db284aea0f7c3fe9b1440bf651d58c3119009c7218e6c5dc18801",
	"OLTP-DB2/medium/core0":    "591abbbc3fce58c6cae54d681b71c7bfd875759aa8733ad185b025b160944b46",
	"OLTP-DB2/medium/core1":    "c93ae1a3f8413e1514c176956da4ae15e64e4d61e2b7f787eb4456fade85a81d",
	"OLTP-DB2/medium/core2":    "5fd5da941bdd9c9b014d60a0501883e9b6621318b736a3b4cd768df2b230b0ff",
	"OLTP-DB2/medium/core3":    "a9ef26cabc947f56b956615d301efbb9696e2cbc26c73ea04d17f20140167cc4",
	"OLTP-Oracle/medium/core0": "bb1ca7bee2dcf37ee07e25ca83139a47bd3ebe52d47313adca4cd2551a126c57",
	"OLTP-Oracle/medium/core1": "3848e5fd64bb09bf960c1724c8e5a793c975c0124b477716018a990ff3ded3d7",
	"OLTP-Oracle/medium/core2": "47b62552c176e3452b8760d3d32874aef3814d49a5a6b909ad0b284d41481039",
	"OLTP-Oracle/medium/core3": "74c2f1282778a325796d4250dece8f8919b63f96efcfaa69a72afacd1fd43c60",
	"DSS-Qry2/medium/core0":    "8581ca3b9a070d18f91aa3092d634fc4c4c0b58733713ab4e0c67b29f2695d3f",
	"DSS-Qry2/medium/core1":    "11d2fd102aa1819c0485401c7e6901b0e22789113a8a70bbcad557548c3c56f7",
	"DSS-Qry2/medium/core2":    "0588b4900cb3266f1861baf5f1847970a420f13c446f7466189d166300094e0f",
	"DSS-Qry2/medium/core3":    "0784f795bde22c2dbab5b13de29c4528c02dbc6f5026bba6718d3b4606e784c7",
	"DSS-Qry17/medium/core0":   "3ac2996b9f6d353a1308c3ca69064421c2930d6b45aeae0e82de893baed06b3f",
	"DSS-Qry17/medium/core1":   "693946f8bf408971c28a86d05a74916db9cc843d7c1112bfe8c90273e557c3ef",
	"DSS-Qry17/medium/core2":   "412e9c3f489fac9e1f75bac7ecf12aab9c4c3b40fada0242e71d48562fbce6ee",
	"DSS-Qry17/medium/core3":   "c87cb8c04987a9c6cce6b8e7ac6b4bc052ea5267363616c0da76c2f8af5522d3",
	"Web-Apache/medium/core0":  "c09f9a1a29cb93733fbd595fd1bd2bfbc8cc1d2dfd92d8ab4c8ff9d35ea43657",
	"Web-Apache/medium/core1":  "e45c826e046f107ad2c37df412c53fe6ad1e46b982ffa342ba8fb8c30ce8c9e4",
	"Web-Apache/medium/core2":  "5729c25ae093b0f80f3158d4e0e2b474d96acc581f99709f1c44ecf48be6d291",
	"Web-Apache/medium/core3":  "cbd7f29497a71f6978f44cb6a974e3cbe6bd012d89806f45053b71f1ff29bb55",
	"Web-Zeus/medium/core0":    "64eada544779979c84f1f025e4783978b917d8cd55fac88bc6e2817b5ee7500a",
	"Web-Zeus/medium/core1":    "c72e82f69ef329a0c0ccd6c393b330ebdfa1685ddaa37cd8b9efa34de469c577",
	"Web-Zeus/medium/core2":    "81017a623edf636dfe20ced77a2d794566b9900b0c3aaeb7115e5ce094acc36d",
	"Web-Zeus/medium/core3":    "a1277c2fe1e17f282c5431fb723b227d213e3a45ae49174a05ca778d119ef02f",
}

// writeEventDigest appends every field of ev to h in a fixed
// little-endian layout.
func writeEventDigest(h hash.Hash, buf *[27]byte, ev isa.BlockEvent) {
	b := buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(ev.PC))
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(ev.Instrs)))
	b[16] = byte(ev.Kind)
	b[17] = boolByte(ev.Taken)
	binary.LittleEndian.PutUint64(b[18:], uint64(ev.Target))
	b[26] = boolByte(ev.InnerLoop) | boolByte(ev.Serializing)<<1
	h.Write(b)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// streamDigest hashes the first n events of one core, drawn in 96-event
// batches as the fetch unit draws them, then the executor's counters.
func streamDigest(g *Generated, core int, n int) string {
	h := sha256.New()
	var buf [27]byte
	batch := make([]isa.BlockEvent, 96)
	x := g.Execs[core]
	for left := n; left > 0; {
		k := min(left, len(batch))
		x.NextBatch(batch[:k])
		for _, ev := range batch[:k] {
			writeEventDigest(h, &buf, ev)
		}
		left -= k
	}
	st := x.Stats()
	var sb [40]byte
	for i, v := range []uint64{st.Events, st.Instrs, st.Traps, st.ContextSwitches, st.Transactions} {
		binary.LittleEndian.PutUint64(sb[8*i:], v)
	}
	h.Write(sb[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TestEventStreamDigests checks the event streams every figure consumes
// against digests recorded from the pointer-graph executor, so a change
// to the program representation or the executor must reproduce each
// core's stream bit for bit. Rerun with -v to print the table.
func TestEventStreamDigests(t *testing.T) {
	const cores = 4
	for _, scale := range []Scale{ScaleSmall, ScaleMedium} {
		for _, spec := range Suite() {
			g := Build(spec, scale, cores)
			for c := 0; c < cores; c++ {
				key := fmt.Sprintf("%s/%s/core%d", spec.Name, scale, c)
				got := streamDigest(g, c, digestEvents)
				t.Logf("%q: %q,", key, got)
				if want, ok := wantStreamDigests[key]; !ok {
					t.Errorf("%s: no recorded digest", key)
				} else if got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
