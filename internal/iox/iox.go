// Package iox persists generated campaigns as JSON, so workloads can be
// generated once and replayed across runs, shipped to other machines, or
// inspected by external tooling.
package iox

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"imc2/internal/gen"
	"imc2/internal/model"
)

// currentVersion guards against silently loading a future format.
const currentVersion = 1

// campaignFile serializes a generated campaign, keeping the hidden ground
// truth and the generator metadata alongside the sealed dataset.
type campaignFile struct {
	Version      int                 `json:"version"`
	Spec         gen.CampaignSpec    `json:"spec"`
	Tasks        []model.Task        `json:"tasks"`
	Observations []model.Observation `json:"observations"`
	GroundTruth  map[string]string   `json:"ground_truth"`
	Costs        map[string]float64  `json:"costs"`
	TrueAccuracy map[string]float64  `json:"true_accuracy"`
	Copiers      []string            `json:"copiers"`
	Sources      map[string][]string `json:"sources"`
}

// WriteCampaign serializes a campaign to w.
func WriteCampaign(w io.Writer, c *gen.Campaign) error {
	if c == nil || c.Dataset == nil {
		return fmt.Errorf("iox: nil campaign")
	}
	ds := c.Dataset
	f := campaignFile{
		Version:      currentVersion,
		Spec:         c.Spec,
		Tasks:        ds.Tasks(),
		GroundTruth:  c.GroundTruth,
		Costs:        make(map[string]float64, ds.NumWorkers()),
		TrueAccuracy: make(map[string]float64, ds.NumWorkers()),
		Sources:      make(map[string][]string),
	}
	for i := 0; i < ds.NumWorkers(); i++ {
		id := ds.WorkerID(i)
		f.Costs[id] = c.Costs[i]
		f.TrueAccuracy[id] = c.TrueAccuracy[i]
		vals := ds.WorkerValues(i)
		for t, j := range ds.WorkerTasks(i) {
			f.Observations = append(f.Observations, model.Observation{
				Worker: id,
				Task:   ds.Task(j).ID,
				Value:  ds.ValueString(j, vals[t]),
			})
		}
	}
	for i := range c.CopierIndex {
		f.Copiers = append(f.Copiers, ds.WorkerID(i))
	}
	sort.Strings(f.Copiers)
	for copier, srcs := range c.Sources {
		var ids []string
		for _, s := range srcs {
			ids = append(ids, ds.WorkerID(s))
		}
		sort.Strings(ids)
		f.Sources[ds.WorkerID(copier)] = ids
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadCampaign deserializes a campaign from r, re-validating the dataset
// and re-linking the metadata to the rebuilt worker indices.
func ReadCampaign(r io.Reader) (*gen.Campaign, error) {
	var f campaignFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("iox: decoding campaign: %w", err)
	}
	if f.Version != currentVersion {
		return nil, fmt.Errorf("iox: unsupported campaign version %d (want %d)", f.Version, currentVersion)
	}
	b := model.NewBuilder()
	for _, t := range f.Tasks {
		b.AddTask(t)
	}
	for _, o := range f.Observations {
		b.AddObservation(o.Worker, o.Task, o.Value)
	}
	ds, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("iox: rebuilding campaign dataset: %w", err)
	}

	c := &gen.Campaign{
		Dataset:      ds,
		GroundTruth:  f.GroundTruth,
		Costs:        make([]float64, ds.NumWorkers()),
		TrueAccuracy: make([]float64, ds.NumWorkers()),
		CopierIndex:  make(map[int]bool, len(f.Copiers)),
		Sources:      make(map[int][]int, len(f.Sources)),
		Spec:         f.Spec,
	}
	for i := 0; i < ds.NumWorkers(); i++ {
		id := ds.WorkerID(i)
		cost, ok := f.Costs[id]
		if !ok {
			return nil, fmt.Errorf("iox: campaign missing cost for worker %q", id)
		}
		c.Costs[i] = cost
		c.TrueAccuracy[i] = f.TrueAccuracy[id]
	}
	for _, id := range f.Copiers {
		i, ok := ds.WorkerIndex(id)
		if !ok {
			return nil, fmt.Errorf("iox: campaign lists unknown copier %q", id)
		}
		c.CopierIndex[i] = true
	}
	for copier, srcs := range f.Sources {
		ci, ok := ds.WorkerIndex(copier)
		if !ok {
			return nil, fmt.Errorf("iox: campaign lists unknown source owner %q", copier)
		}
		for _, sid := range srcs {
			si, ok := ds.WorkerIndex(sid)
			if !ok {
				return nil, fmt.Errorf("iox: campaign lists unknown source %q", sid)
			}
			c.Sources[ci] = append(c.Sources[ci], si)
		}
	}
	return c, nil
}

// SaveCampaign writes a campaign to path (0644).
func SaveCampaign(path string, c *gen.Campaign) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("iox: %w", err)
	}
	defer fh.Close()
	if err := WriteCampaign(fh, c); err != nil {
		return err
	}
	return fh.Close()
}

// LoadCampaign reads a campaign from path.
func LoadCampaign(path string) (*gen.Campaign, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("iox: %w", err)
	}
	defer fh.Close()
	return ReadCampaign(fh)
}
