#pragma once

/// \file structured_mesh.hpp
/// Regular 3-D structured mesh (the JASMIN-side substrate).
///
/// Cells are unit-strided along x: id = i + nx*(j + ny*k). The mesh stores
/// per-cell material ids; geometry is implicit (uniform spacing), which is
/// what lets Kobayashi-400-class meshes (64M+ cells) exist as metadata only.

#include <cstdint>
#include <optional>
#include <vector>

#include "mesh/geometry.hpp"
#include "support/check.hpp"
#include "support/ids.hpp"

namespace jsweep::mesh {

class StructuredMesh {
 public:
  /// `dims` cells per axis, physical cell spacing `spacing`, lower corner
  /// at `origin`.
  StructuredMesh(Index3 dims, Vec3 spacing, Vec3 origin = {});

  [[nodiscard]] Index3 dims() const { return dims_; }
  [[nodiscard]] Vec3 spacing() const { return spacing_; }
  [[nodiscard]] Vec3 origin() const { return origin_; }
  [[nodiscard]] std::int64_t num_cells() const { return num_cells_; }

  [[nodiscard]] CellId cell_at(Index3 p) const {
    JSWEEP_ASSERT(box().contains(p));
    return CellId{p.i + static_cast<std::int64_t>(dims_.i) *
                            (p.j + static_cast<std::int64_t>(dims_.j) * p.k)};
  }

  [[nodiscard]] Index3 index_of(CellId c) const {
    JSWEEP_ASSERT(c.valid() && c.value() < num_cells_);
    const auto v = c.value();
    const auto nx = static_cast<std::int64_t>(dims_.i);
    const auto ny = static_cast<std::int64_t>(dims_.j);
    return {static_cast<int>(v % nx), static_cast<int>((v / nx) % ny),
            static_cast<int>(v / (nx * ny))};
  }

  /// The whole mesh as an index box.
  [[nodiscard]] Box box() const { return {{0, 0, 0}, dims_}; }

  /// Neighbor across `dir`, or nullopt at the domain boundary. Inline:
  /// graph construction and face interning call it per cell and face.
  [[nodiscard]] std::optional<CellId> neighbor(CellId c, FaceDir dir) const {
    return neighbor(index_of(c), dir);
  }
  /// Neighbor across `dir` of the cell at index `p`: for loops that visit
  /// several faces of one cell and so decode its index (three divisions)
  /// once.
  [[nodiscard]] std::optional<CellId> neighbor(Index3 p, FaceDir dir) const {
    const Index3 off = kFaceOffsets[static_cast<std::size_t>(dir)];
    p.i += off.i;
    p.j += off.j;
    p.k += off.k;
    if (!box().contains(p)) return std::nullopt;
    return cell_at(p);
  }

  [[nodiscard]] Vec3 cell_center(CellId c) const;
  [[nodiscard]] double cell_volume() const {
    return spacing_.x * spacing_.y * spacing_.z;
  }
  /// Area of a face perpendicular to `dir`.
  [[nodiscard]] double face_area(FaceDir dir) const;

  /// Per-cell material ids (default 0). Generators fill these.
  [[nodiscard]] int material(CellId c) const {
    return materials_.empty() ? 0
                              : materials_[static_cast<std::size_t>(c.value())];
  }
  void set_materials(std::vector<int> m);
  [[nodiscard]] const std::vector<int>& materials() const { return materials_; }

 private:
  Index3 dims_;
  Vec3 spacing_;
  Vec3 origin_;
  std::int64_t num_cells_;
  std::vector<int> materials_;
};

}  // namespace jsweep::mesh
