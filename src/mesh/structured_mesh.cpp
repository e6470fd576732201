#include "mesh/structured_mesh.hpp"

namespace jsweep::mesh {

StructuredMesh::StructuredMesh(Index3 dims, Vec3 spacing, Vec3 origin)
    : dims_(dims),
      spacing_(spacing),
      origin_(origin),
      num_cells_(static_cast<std::int64_t>(dims.i) * dims.j * dims.k) {
  JSWEEP_CHECK_MSG(dims.i > 0 && dims.j > 0 && dims.k > 0,
                   "structured mesh dims " << dims);
  JSWEEP_CHECK(spacing.x > 0 && spacing.y > 0 && spacing.z > 0);
}

Vec3 StructuredMesh::cell_center(CellId c) const {
  const Index3 p = index_of(c);
  return {origin_.x + (p.i + 0.5) * spacing_.x,
          origin_.y + (p.j + 0.5) * spacing_.y,
          origin_.z + (p.k + 0.5) * spacing_.z};
}

double StructuredMesh::face_area(FaceDir dir) const {
  switch (dir) {
    case FaceDir::XLo:
    case FaceDir::XHi:
      return spacing_.y * spacing_.z;
    case FaceDir::YLo:
    case FaceDir::YHi:
      return spacing_.x * spacing_.z;
    case FaceDir::ZLo:
    case FaceDir::ZHi:
      return spacing_.x * spacing_.y;
  }
  return 0.0;
}

void StructuredMesh::set_materials(std::vector<int> m) {
  JSWEEP_CHECK_MSG(static_cast<std::int64_t>(m.size()) == num_cells_,
                   "material array size " << m.size() << " != cells "
                                          << num_cells_);
  materials_ = std::move(m);
}

}  // namespace jsweep::mesh
