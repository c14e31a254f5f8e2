package experiments

import (
	"testing"

	"ispy/internal/core"
	"ispy/internal/workload"
)

// pinnedKeys are the artifact filenames of each preset's headline
// artifacts at QuickConfig — base, ideal, profile, asmdb-build, ispy-build,
// ispy-run — captured when keys were still derived from a generated
// workload. Keys now derive from the preset table alone; equal filenames
// mean caches filled before that change keep serving after it.
var pinnedKeys = map[string][6]string{
	"cassandra":       {"base-cassandra-188123c13f7c4f85.art", "ideal-cassandra-6f79a9e392cc779f.art", "profile-cassandra-79319e86bc4af9e6.art", "asmdb-build-cassandra-b08d4dd49a0b2b52.art", "ispy-build-cassandra-936b20a9a1ba8c69.art", "ispy-run-cassandra-f1a22147e09620b8.art"},
	"drupal":          {"base-drupal-a53043282cba02f2.art", "ideal-drupal-86dac1f818c84bf4.art", "profile-drupal-a91b84abc301ef4d.art", "asmdb-build-drupal-950e9a29ec0957b5.art", "ispy-build-drupal-1b0d29d865c2bbca.art", "ispy-run-drupal-759d648596c2ea77.art"},
	"finagle-chirper": {"base-finagle-chirper-d6690a0d442fdbfc.art", "ideal-finagle-chirper-622bdce3e29b9782.art", "profile-finagle-chirper-5a92a0a1999e21b3.art", "asmdb-build-finagle-chirper-db1484e5a34730f7.art", "ispy-build-finagle-chirper-657edf221612bdf8.art", "ispy-run-finagle-chirper-4a3fe5f31c29f4f1.art"},
	"finagle-http":    {"base-finagle-http-70d33dc339fb4d6a.art", "ideal-finagle-http-578001d2c4a50a6c.art", "profile-finagle-http-13b86f3129f98c89.art", "asmdb-build-finagle-http-fe6d9b19da09775d.art", "ispy-build-finagle-http-9bec3ef447176176.art", "ispy-run-finagle-http-ed4e6d179e88a31b.art"},
	"kafka":           {"base-kafka-19bbde7c9caad5a3.art", "ideal-kafka-330690b3ef54f0f1.art", "profile-kafka-ab0cb33c47bdbac0.art", "asmdb-build-kafka-ed1d7402d0596298.art", "ispy-build-kafka-c57da4f8147bdd1b.art", "ispy-run-kafka-1a2c36c841e7d45e.art"},
	"mediawiki":       {"base-mediawiki-c6191f8dd446b89b.art", "ideal-mediawiki-1f90861f8c2e8253.art", "profile-mediawiki-01ef1e1a53c559c2.art", "asmdb-build-mediawiki-3420b4443bddb260.art", "ispy-build-mediawiki-0c0d886f0c35f3c5.art", "ispy-run-mediawiki-414db1611100e8fe.art"},
	"tomcat":          {"base-tomcat-bffd5b42a6c02c2a.art", "ideal-tomcat-bb75a1bc71f8c1d0.art", "profile-tomcat-fb1a5fa21e2619c5.art", "asmdb-build-tomcat-c0ad7ce064d4ab2d.art", "ispy-build-tomcat-a2869806038446a2.art", "ispy-run-tomcat-ff8c73a9c052e94b.art"},
	"verilator":       {"base-verilator-dc8dda28031746f0.art", "ideal-verilator-b2dbcd2766104df6.art", "profile-verilator-f49f9c7e21b6d0ff.art", "asmdb-build-verilator-b3e27ee5482dd94b.art", "ispy-build-verilator-2169e9d771237a54.art", "ispy-run-verilator-0ecfa9873048203d.art"},
	"wordpress":       {"base-wordpress-8638c219fb89fe62.art", "ideal-wordpress-561eb8137fce5c52.art", "profile-wordpress-bd4651262a52b193.art", "asmdb-build-wordpress-7f65f818db4b3195.art", "ispy-build-wordpress-cc3b48006e0c1fb8.art", "ispy-run-wordpress-515d67a5e925c637.art"},
}

func TestArtifactKeysPinned(t *testing.T) {
	lab := NewLab(QuickConfig())
	for _, n := range workload.AppNames {
		if got := workload.Generate(workload.PresetParams(n)).Params; got != workload.PresetParams(n) {
			t.Errorf("%s: Generate(PresetParams).Params = %+v, want %+v", n, got, workload.PresetParams(n))
		}
		a := lab.App(n)
		cfg := a.SimCfg()
		ideal := cfg
		ideal.Ideal = true
		opt := core.DefaultOptions()
		got := [6]string{
			a.key("base").SimConfig(cfg).Filename(),
			a.key("ideal").SimConfig(ideal).Filename(),
			a.key("profile").SimConfig(cfg).Filename(),
			a.key("asmdb-build").SimConfig(cfg).Options(opt).Filename(),
			a.ispyKey().Filename(),
			a.key("ispy-run").SimConfig(cfg).Options(opt).Filename(),
		}
		if got != pinnedKeys[n] {
			t.Errorf("%s: artifact keys moved:\n got  %q\n want %q", n, got, pinnedKeys[n])
		}
		if a.w.v != nil {
			t.Errorf("%s: deriving its keys generated the workload", n)
		}
	}
}
