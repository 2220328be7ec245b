package analysis

import (
	"encoding/json"
	"go/token"
	"testing"
)

// TestSARIFStructure validates the emitted log against the SARIF 2.1.0
// schema's requirements for the subset automon-lint produces, offline: the
// required top-level properties ($schema, version, runs), the tool driver
// with its rule table, and per-result ruleId/ruleIndex consistency with
// physical locations. The generic re-decode (not the emitter's own structs)
// is what makes this a schema check rather than a round-trip.
func TestSARIFStructure(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: "/mod/internal/core/coordinator.go", Line: 10, Column: 3},
			Analyzer: "determinism",
			Message:  "taint finding",
		},
		{
			Pos:      token.Position{Filename: "/elsewhere/outside.go", Line: 2, Column: 1},
			Analyzer: "automon-lint",
			Message:  "malformed directive",
		},
	}
	out, err := SARIF(diags, All(), "/mod")
	if err != nil {
		t.Fatal(err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("emitted SARIF does not parse: %v", err)
	}

	if log.Schema != "https://json.schemastore.org/sarif-2.1.0.json" {
		t.Errorf("$schema = %q", log.Schema)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "automon-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// Rule table: the directive pseudo-rule first, then every registered
	// analyzer — findings or not — each with a non-empty description.
	if want := 1 + len(All()); len(run.Tool.Driver.Rules) != want {
		t.Fatalf("rules = %d, want %d", len(run.Tool.Driver.Rules), want)
	}
	if run.Tool.Driver.Rules[0].ID != "automon-lint" {
		t.Errorf("rules[0].id = %q, want the directive pseudo-rule", run.Tool.Driver.Rules[0].ID)
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" {
			t.Errorf("rule %+v missing id or shortDescription", r)
		}
	}

	if len(run.Results) != len(diags) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(diags))
	}
	for i, res := range run.Results {
		if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Fatalf("results[%d].ruleIndex = %d out of range", i, res.RuleIndex)
		}
		if run.Tool.Driver.Rules[res.RuleIndex].ID != res.RuleID {
			t.Errorf("results[%d]: ruleIndex %d resolves to %q, ruleId says %q",
				i, res.RuleIndex, run.Tool.Driver.Rules[res.RuleIndex].ID, res.RuleID)
		}
		if res.Level != "error" {
			t.Errorf("results[%d].level = %q", i, res.Level)
		}
		if res.Message.Text == "" {
			t.Errorf("results[%d] has no message text", i)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("results[%d] has %d locations, want 1", i, len(res.Locations))
		}
	}

	// In-root paths relativize under SRCROOT with forward slashes; paths
	// outside the root stay absolute with no uriBase.
	loc0 := run.Results[0].Locations[0].PhysicalLocation
	if loc0.ArtifactLocation.URI != "internal/core/coordinator.go" || loc0.ArtifactLocation.URIBaseID != "SRCROOT" {
		t.Errorf("in-root location = %+v, want relative URI under SRCROOT", loc0.ArtifactLocation)
	}
	if loc0.Region.StartLine != 10 || loc0.Region.StartColumn != 3 {
		t.Errorf("region = %+v, want 10:3", loc0.Region)
	}
	loc1 := run.Results[1].Locations[0].PhysicalLocation
	if loc1.ArtifactLocation.URIBaseID != "" {
		t.Errorf("out-of-root location carries uriBaseId %q", loc1.ArtifactLocation.URIBaseID)
	}
}

// TestSARIFEmptyRun keeps a clean run schema-valid: results must be an
// empty array, not null, and the rule table still documents the suite.
func TestSARIFEmptyRun(t *testing.T) {
	out, err := SARIF(nil, All(), "")
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []json.RawMessage `json:"results"`
			Tool    struct {
				Driver struct {
					Rules []json.RawMessage `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(out, &generic); err != nil {
		t.Fatal(err)
	}
	runs := generic["runs"].([]any)
	if results, ok := runs[0].(map[string]any)["results"]; !ok || results == nil {
		t.Error("clean run emits null results; the schema requires an array")
	}
	if len(log.Runs[0].Tool.Driver.Rules) != 1+len(All()) {
		t.Errorf("clean run documents %d rules, want %d", len(log.Runs[0].Tool.Driver.Rules), 1+len(All()))
	}
}
