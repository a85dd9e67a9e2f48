package core

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sort"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/engine"
	"repro/internal/mesh"
)

// Product plumbing. Every artifact Canopus moves between the pipeline and
// storage — mesh geometry, vertex mappings, level data, delta tiles — is
// described by an engine.Product, and this file is the single place that
// maps products onto BP containers. The write paths (refactor.go,
// series.go) emit products and assemble them into containers here; the read
// paths (retrieve.go, region.go) fetch variables back as products. Before
// the engine refactor each of those files carried its own key/byte-slice
// handling; they now share one descriptor and one layout.

// productRank fixes the canonical variable order inside a level container:
// mesh geometry first (metadata), then the data payload, then delta tiles
// in ascending tile order, then the mapping. The order is part of the
// stored format — containers assembled from the same products are
// byte-identical regardless of how many workers produced them.
func productRank(k engine.Kind) int {
	switch k {
	case engine.KindMesh:
		return 0
	case engine.KindData:
		return 1
	case engine.KindDelta:
		return 2
	case engine.KindMapping:
		return 3
	default:
		return 4
	}
}

// assembleContainer writes products into a fresh BP container in canonical
// order. attrs become file-level attributes.
func assembleContainer(products []engine.Product, attrs map[string]string) (*bp.Writer, error) {
	w := bp.NewWriter()
	for k, v := range attrs {
		w.SetAttr(k, v)
	}
	sorted := append([]engine.Product(nil), products...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if ri, rj := productRank(sorted[i].Kind), productRank(sorted[j].Kind); ri != rj {
			return ri < rj
		}
		return sorted[i].Chunk < sorted[j].Chunk
	})
	for _, p := range sorted {
		if err := w.PutBytes(p.VarName(), p.Level, p.Payload, p.Attrs()); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// fetchProduct selectively reads one product's payload from an open
// container, charging only its extent.
func fetchProduct(h *adios.Handle, level int, kind engine.Kind, chunk int) (engine.Product, error) {
	p := engine.Product{Level: level, Kind: kind, Chunk: chunk, Tier: h.TierIdx}
	payload, err := h.ReadBytes(p.VarName(), level)
	if err != nil {
		return engine.Product{}, err
	}
	p.Payload = payload
	if v, ok := h.InqVar(p.VarName(), level); ok {
		p.Codec = v.Attrs["codec"]
	}
	return p, nil
}

// deflateBytes losslessly compresses opaque bytes (mesh and mapping
// encodings).
func deflateBytes(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(raw); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// fetchDeflated reads and inflates a losslessly-stored metadata product.
func fetchDeflated(h *adios.Handle, level int, kind engine.Kind) ([]byte, error) {
	p, err := fetchProduct(h, level, kind, 0)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(p.Payload)))
	if err != nil {
		return nil, fmt.Errorf("canopus: inflate %s %d: %w", kind, level, err)
	}
	return raw, nil
}

// fetchMesh reads and decodes a level's mesh geometry.
func fetchMesh(h *adios.Handle, l int) (*mesh.Mesh, error) {
	raw, err := fetchDeflated(h, l, engine.KindMesh)
	if err != nil {
		return nil, err
	}
	m, _, err := mesh.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("canopus: decode mesh %d: %w", l, err)
	}
	return m, nil
}

// meshProduct encodes a level's mesh geometry as a product.
func meshProduct(l int, m *mesh.Mesh) (engine.Product, error) {
	payload, err := deflateBytes(mesh.Encode(m))
	if err != nil {
		return engine.Product{}, err
	}
	return engine.Product{Level: l, Kind: engine.KindMesh, Payload: payload}, nil
}
