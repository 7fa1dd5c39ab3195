package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// ManifestSchema versions the manifest.json layout. Bump only on
// incompatible changes; added optional fields keep the schema number.
const ManifestSchema = 1

// ManifestFile is the canonical manifest file name inside a results
// directory.
const ManifestFile = "manifest.json"

// ExperimentTiming is one experiment's wall-clock record inside a
// manifest.
type ExperimentTiming struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	// Err carries the failure message of an experiment that did not
	// complete ("" on success) — interrupted campaigns keep their partial
	// provenance.
	Err string `json:"err,omitempty"`
}

// ShardTiming is one generated shard's record inside a manifest: which
// experiment was running, which vantage point and shard, how many records
// it emitted and how long it took.
type ShardTiming struct {
	Experiment string  `json:"experiment,omitempty"`
	VP         string  `json:"vp"`
	Shard      int     `json:"shard"`
	Shards     int     `json:"shards"`
	Records    int64   `json:"records"`
	Seconds    float64 `json:"seconds"`
}

// ResumeInfo records what a resumed run reused from its checkpoint, so
// the manifest answers "which parts of this output were regenerated?"
// without consulting logs.
type ResumeInfo struct {
	// Checkpoint is the path of the checkpoint file or directory the run
	// resumed from.
	Checkpoint string `json:"checkpoint"`
	// ResumedShards counts generation shards reused from checkpointed
	// parts rather than regenerated.
	ResumedShards int `json:"resumed_shards,omitempty"`
	// ResumedExperiments counts experiments whose results were loaded
	// from a results checkpoint rather than recomputed.
	ResumedExperiments int `json:"resumed_experiments,omitempty"`
}

// Manifest is the machine-readable provenance record of one run: the
// reproducibility key (seed, spec), the execution environment, per-
// experiment and per-shard timings, the stream hash when a serialized
// stream was produced, and a full telemetry snapshot. Every Run with a
// results directory writes one as manifest.json next to the rendered
// results.
type Manifest struct {
	Schema      int    `json:"schema"`
	CreatedUnix int64  `json:"created_unix"`
	GoVersion   string `json:"go"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`

	Seed int64 `json:"seed"`
	// Spec flattens the run's configuration (scale, shards, selection,
	// profiles, ...) as ordered-irrelevant key/value strings.
	Spec map[string]string `json:"spec,omitzero"`

	// StreamHash is the FNV-1a hash of the serialized record stream, when
	// the run produced one (trace exports set it; analysis-only runs leave
	// it empty). Two runs of the same spec must produce the same hash —
	// the telemetry-on/off golden check in CI compares exactly this.
	StreamHash string `json:"stream_hash,omitempty"`

	Experiments []ExperimentTiming `json:"experiments"`
	Shards      []ShardTiming      `json:"shards"`

	// Resume records checkpoint provenance when the run resumed earlier
	// work instead of starting fresh. Optional — its addition keeps
	// schema 1 (absent means an uninterrupted run).
	Resume *ResumeInfo `json:"resume,omitempty"`

	// Telemetry is the process-wide metric snapshot at write time.
	Telemetry Snap `json:"telemetry"`
}

// NewManifest returns a manifest stamped with the current execution
// environment.
func NewManifest(seed int64) *Manifest {
	return &Manifest{
		Schema:      ManifestSchema,
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
	}
}

// Finalize captures the current telemetry snapshot into the manifest and
// normalizes nil slices so the JSON always carries the experiments and
// shards arrays (the schema contract CI validates).
func (m *Manifest) Finalize() {
	m.Telemetry = Snapshot()
	if m.Experiments == nil {
		m.Experiments = []ExperimentTiming{}
	}
	if m.Shards == nil {
		m.Shards = []ShardTiming{}
	}
	if h, ok := m.Telemetry.Info["stream_hash"]; ok && m.StreamHash == "" {
		m.StreamHash = h
	}
}

// Validate checks the schema contract: version match and the fields every
// consumer relies on.
func (m *Manifest) Validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("telemetry: manifest schema %d, want %d", m.Schema, ManifestSchema)
	}
	if m.GoVersion == "" || m.GOMAXPROCS < 1 {
		return fmt.Errorf("telemetry: manifest missing execution environment")
	}
	if m.Experiments == nil || m.Shards == nil {
		return fmt.Errorf("telemetry: manifest missing experiments/shards arrays")
	}
	if m.Telemetry.Counters == nil {
		return fmt.Errorf("telemetry: manifest missing counter snapshot")
	}
	return nil
}

// Encode renders the manifest as indented JSON.
func (m *Manifest) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Save finalizes the manifest and writes it to path.
func (m *Manifest) Save(path string) error {
	m.Finalize()
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadManifest parses and validates a manifest.json.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// parseManifest decodes and validates the bytes of a manifest.json.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("telemetry: parsing manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
