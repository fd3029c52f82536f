package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
)

// SARIF 2.1.0 subset — the fields GitHub code scanning needs to render
// findings as PR annotations. Kept as explicit structs so the output
// shape is visible here rather than spread over map literals.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID        string    `json:"id"`
	ShortDesc sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
	Related   []sarifLocation `json:"relatedLocations,omitempty"`
}

type sarifLocation struct {
	Physical sarifPhysical `json:"physicalLocation"`
	Message  *sarifText    `json:"message,omitempty"`
}

type sarifPhysical struct {
	Artifact sarifArtifact `json:"artifactLocation"`
	Region   sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI    string `json:"uri"`
	BaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders diagnostics as a SARIF 2.1.0 log. root is the
// repository root used to relativize file paths (GitHub resolves
// %SRCROOT%-relative URIs against the checkout); analyzers supply the
// rule metadata for the IDs that actually fired.
func WriteSARIF(w io.Writer, root string, analyzers []*Analyzer, diags []Diagnostic) error {
	docs := make(map[string]string, len(analyzers))
	for _, a := range analyzers {
		docs[a.Name] = a.Doc
	}
	seen := make(map[string]bool)
	rules := make([]sarifRule, 0, len(docs))
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		id := d.RuleID()
		if !seen[id] {
			seen[id] = true
			doc := docs[d.Rule]
			if doc == "" {
				doc = d.Rule + " finding"
			}
			rules = append(rules, sarifRule{ID: id, ShortDesc: sarifText{Text: doc}})
		}
		res := sarifResult{
			RuleID:  id,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				Physical: sarifPhysical{
					Artifact: sarifArtifact{URI: sarifURI(root, d.Pos.Filename), BaseID: "%SRCROOT%"},
					Region:   sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		}
		for _, r := range d.Related {
			msg := r.Message
			res.Related = append(res.Related, sarifLocation{
				Physical: sarifPhysical{
					Artifact: sarifArtifact{URI: sarifURI(root, r.Pos.Filename), BaseID: "%SRCROOT%"},
					Region:   sarifRegion{StartLine: r.Pos.Line, StartColumn: r.Pos.Column},
				},
				Message: &sarifText{Text: msg},
			})
		}
		results = append(results, res)
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "picl-lint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// sarifURI relativizes a path against root and normalizes separators.
func sarifURI(root, path string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, path); err == nil {
			path = rel
		}
	}
	return filepath.ToSlash(path)
}
