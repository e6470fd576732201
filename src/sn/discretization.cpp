#include "sn/discretization.hpp"

#include <cmath>

#ifdef __AVX2__
#include <immintrin.h>
#endif

#include "support/check.hpp"

namespace jsweep::sn {

namespace {

double lookup(const FaceFluxMap& flux, std::int64_t face) {
  const auto it = flux.find(face);
  return it == flux.end() ? 0.0 : it->second;  // vacuum boundary
}

}  // namespace

StructuredDD::StructuredDD(const mesh::StructuredMesh& m, CellXs xs,
                           bool negative_flux_fixup, BoundarySpec boundary)
    : mesh_(m),
      xs_(std::move(xs)),
      fixup_(negative_flux_fixup),
      boundary_(boundary) {
  JSWEEP_CHECK(static_cast<std::int64_t>(xs_.sigma_t.size()) ==
               m.num_cells());
  boundary_.validate();
}

// The dense and map kernels must perform the identical floating-point
// operations in the identical order — the dense path replaces only *where*
// face fluxes live, never the arithmetic — so results stay bitwise equal.

double StructuredDD::sweep_cell(CellId c, const Ordinate& ang,
                                const std::vector<double>& q_per_ster,
                                const FaceFluxView& flux) const {
  const mesh::Vec3 sp = mesh_.spacing();
  const mesh::Vec3 omega = ang.dir;

  const std::array<double, 3> absmu{std::abs(omega.x), std::abs(omega.y),
                                    std::abs(omega.z)};
  const std::array<double, 3> width{sp.x, sp.y, sp.z};

  double numerator = q_per_ster[static_cast<std::size_t>(c.value())];
  double denominator = xs_.sigma_t[static_cast<std::size_t>(c.value())];
  std::array<double, 3> psi_in{};
  for (int axis = 0; axis < 3; ++axis) {
    const double alpha = 2.0 * absmu[static_cast<std::size_t>(axis)] /
                         width[static_cast<std::size_t>(axis)];
    const double in = flux.read_in(axis);  // vacuum slot reads 0
    psi_in[static_cast<std::size_t>(axis)] = in;
    numerator += alpha * in;
    denominator += alpha;
  }

  const double psi_c = numerator / denominator;

  for (int axis = 0; axis < 3; ++axis) {
    double out = 2.0 * psi_c - psi_in[static_cast<std::size_t>(axis)];
    if (fixup_ && out < 0.0) out = 0.0;
    flux.write_out(axis, out);
  }
  return psi_c;
}

double StructuredDD::sweep_cell(CellId c, const Ordinate& ang,
                                const std::vector<double>& q_per_ster,
                                FaceFluxMap& flux) const {
  const mesh::Vec3 sp = mesh_.spacing();
  const mesh::Vec3 omega = ang.dir;

  // Per-axis upwind/downwind faces for this ordinate.
  const std::array<double, 3> absmu{std::abs(omega.x), std::abs(omega.y),
                                    std::abs(omega.z)};
  const std::array<double, 3> width{sp.x, sp.y, sp.z};
  const std::array<mesh::FaceDir, 3> in_dir{
      omega.x > 0 ? mesh::FaceDir::XLo : mesh::FaceDir::XHi,
      omega.y > 0 ? mesh::FaceDir::YLo : mesh::FaceDir::YHi,
      omega.z > 0 ? mesh::FaceDir::ZLo : mesh::FaceDir::ZHi};

  double numerator = q_per_ster[static_cast<std::size_t>(c.value())];
  double denominator = xs_.sigma_t[static_cast<std::size_t>(c.value())];
  std::array<double, 3> psi_in{};
  for (int axis = 0; axis < 3; ++axis) {
    const double alpha = 2.0 * absmu[static_cast<std::size_t>(axis)] /
                         width[static_cast<std::size_t>(axis)];
    const auto d = in_dir[static_cast<std::size_t>(axis)];
    const auto nb = mesh_.neighbor(c, d);
    // Boundary faces on an albedo side read the seeded slot named from
    // this cell (the mirror angle's outflow face); an unseeded read is 0,
    // so with vacuum sides nothing changes bitwise.
    const double in =
        nb ? lookup(flux, graph::structured_face_id(*nb, mesh::opposite(d)))
        : boundary_.side(d) != 0.0
            ? lookup(flux, graph::structured_face_id(c, d))
            : 0.0;
    psi_in[static_cast<std::size_t>(axis)] = in;
    numerator += alpha * in;
    denominator += alpha;
  }

  const double psi_c = numerator / denominator;

  for (int axis = 0; axis < 3; ++axis) {
    double out = 2.0 * psi_c - psi_in[static_cast<std::size_t>(axis)];
    if (fixup_ && out < 0.0) out = 0.0;
    const mesh::FaceDir out_dir =
        mesh::opposite(in_dir[static_cast<std::size_t>(axis)]);
    flux[graph::structured_face_id(c, out_dir)] = out;
  }
  return psi_c;
}

// The set kernel runs the scalar op sequence in every lane: per axis the
// same alpha (geometry is lane-independent), the same add order into
// numerator/denominator, one divide, the same extrapolation + fixup. The
// lanes only share loop control, never operands, so no reassociation can
// occur and lane l is bitwise the scalar sweep of group g0+l wherever the
// target does not contract a*b+c into an FMA.

void StructuredDD::sweep_cell_set(CellId c, const Ordinate& ang, int width,
                                  const double* q_per_ster,
                                  const double* sigma_t,
                                  const FaceFluxSetView& flux,
                                  double* psi_out) const {
  JSWEEP_ASSERT(width >= 1 && width <= kMaxGroupSetWidth);
  const mesh::Vec3 sp = mesh_.spacing();
  const mesh::Vec3 omega = ang.dir;

  const std::array<double, 3> absmu{std::abs(omega.x), std::abs(omega.y),
                                    std::abs(omega.z)};
  const std::array<double, 3> cell_width{sp.x, sp.y, sp.z};
  std::array<double, 3> alpha{};
  for (int axis = 0; axis < 3; ++axis)
    alpha[static_cast<std::size_t>(axis)] =
        2.0 * absmu[static_cast<std::size_t>(axis)] /
        cell_width[static_cast<std::size_t>(axis)];

  const std::size_t base =
      static_cast<std::size_t>(c.value()) * static_cast<std::size_t>(width);

  // Gather lanes (epoch-checked workspace reads stay scalar)...
  alignas(64) double psi_in[3][kMaxGroupSetWidth];
  for (int axis = 0; axis < 3; ++axis)
    for (int l = 0; l < width; ++l)
      psi_in[axis][l] = flux.read_in(axis, l);  // vacuum slot reads 0

#ifdef __AVX2__
  if (width == 4) {
    __m256d num = _mm256_loadu_pd(q_per_ster + base);
    __m256d den = _mm256_loadu_pd(sigma_t + base);
    __m256d in[3];
    for (int axis = 0; axis < 3; ++axis) {
      in[axis] = _mm256_load_pd(psi_in[axis]);
      const __m256d a = _mm256_set1_pd(alpha[static_cast<std::size_t>(axis)]);
      // Explicit mul+add intrinsics — never contracted into an FMA, so
      // lanes match the scalar kernel bitwise.
      num = _mm256_add_pd(num, _mm256_mul_pd(a, in[axis]));
      den = _mm256_add_pd(den, a);
    }
    const __m256d psi = _mm256_div_pd(num, den);
    _mm256_storeu_pd(psi_out, psi);
    const __m256d two = _mm256_set1_pd(2.0);
    const __m256d zero = _mm256_setzero_pd();
    for (int axis = 0; axis < 3; ++axis) {
      __m256d out =
          _mm256_sub_pd(_mm256_mul_pd(two, psi), in[axis]);
      if (fixup_) {
        // Zero exactly the lanes with out < 0. (max_pd would also flush
        // -0.0 to +0.0, diverging from the scalar `if (out < 0)` fixup.)
        const __m256d neg = _mm256_cmp_pd(out, zero, _CMP_LT_OQ);
        out = _mm256_andnot_pd(neg, out);
      }
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, out);
      for (int l = 0; l < 4; ++l) flux.write_out(axis, l, lanes[l]);
    }
    return;
  }
#endif

  alignas(64) double numerator[kMaxGroupSetWidth];
  alignas(64) double denominator[kMaxGroupSetWidth];
#pragma omp simd
  for (int l = 0; l < width; ++l) {
    double num = q_per_ster[base + static_cast<std::size_t>(l)];
    double den = sigma_t[base + static_cast<std::size_t>(l)];
    for (int axis = 0; axis < 3; ++axis) {
      num += alpha[static_cast<std::size_t>(axis)] * psi_in[axis][l];
      den += alpha[static_cast<std::size_t>(axis)];
    }
    numerator[l] = num;
    denominator[l] = den;
  }
#pragma omp simd
  for (int l = 0; l < width; ++l)
    psi_out[l] = numerator[l] / denominator[l];

  for (int axis = 0; axis < 3; ++axis) {
    alignas(64) double out[kMaxGroupSetWidth];
#pragma omp simd
    for (int l = 0; l < width; ++l) {
      double v = 2.0 * psi_out[l] - psi_in[axis][l];
      if (fixup_ && v < 0.0) v = 0.0;
      out[l] = v;
    }
    for (int l = 0; l < width; ++l) flux.write_out(axis, l, out[l]);
  }
}

void StructuredDD::face_ids(CellId c, const Ordinate& ang,
                            CellFaceIds& ids) const {
  const mesh::Vec3 omega = ang.dir;
  const std::array<mesh::FaceDir, 3> in_dir{
      omega.x > 0 ? mesh::FaceDir::XLo : mesh::FaceDir::XHi,
      omega.y > 0 ? mesh::FaceDir::YLo : mesh::FaceDir::YHi,
      omega.z > 0 ? mesh::FaceDir::ZLo : mesh::FaceDir::ZHi};
  ids = CellFaceIds{};
  ids.count = 3;
  const mesh::Index3 at = mesh_.index_of(c);
  for (int axis = 0; axis < 3; ++axis) {
    const auto d = in_dir[static_cast<std::size_t>(axis)];
    const auto nb = mesh_.neighbor(at, d);
    // Albedo sides: the incoming boundary face is structured_face_id(c, d)
    // — the very face the mirror angle writes as its outflow from this
    // cell — so the plan's boundary store can couple the pair.
    ids.in[static_cast<std::size_t>(axis)] =
        nb                            ? graph::structured_face_id(
                                            *nb, mesh::opposite(d))
        : boundary_.side(d) != 0.0 ? graph::structured_face_id(c, d)
                                      : CellFaceIds::kNone;
    ids.out[static_cast<std::size_t>(axis)] =
        graph::structured_face_id(c, mesh::opposite(d));
  }
}

TetStep::TetStep(const mesh::TetMesh& m, CellXs xs)
    : mesh_(m), xs_(std::move(xs)) {
  JSWEEP_CHECK(static_cast<std::int64_t>(xs_.sigma_t.size()) ==
               m.num_cells());
}

double TetStep::sweep_cell(CellId c, const Ordinate& ang,
                           const std::vector<double>& q_per_ster,
                           const FaceFluxView& flux) const {
  const double volume = mesh_.cell_volume(c);
  const mesh::Vec3 omega = ang.dir;

  double numerator =
      q_per_ster[static_cast<std::size_t>(c.value())] * volume;
  double denominator =
      xs_.sigma_t[static_cast<std::size_t>(c.value())] * volume;

  // First pass: gather inflow and accumulate outflow coefficients, in cell
  // face order (entry k of the slot record is cell_faces(c)[k]).
  const auto& faces = mesh_.cell_faces(c);
  std::array<double, 4> adot{};
  for (int k = 0; k < 4; ++k) {
    const mesh::Vec3 area =
        mesh_.outward_area(faces[static_cast<std::size_t>(k)], c);
    const double a = dot(area, omega);
    adot[static_cast<std::size_t>(k)] = a;
    if (a > 0.0) {
      denominator += a;
    } else if (a < 0.0) {
      numerator += (-a) * flux.read_in(k);
    }
  }
  const double psi_c = numerator / denominator;

  // Second pass: the step scheme's outgoing face flux equals ψ_c.
  for (int k = 0; k < 4; ++k)
    if (adot[static_cast<std::size_t>(k)] > 0.0) flux.write_out(k, psi_c);
  return psi_c;
}

double TetStep::sweep_cell(CellId c, const Ordinate& ang,
                           const std::vector<double>& q_per_ster,
                           FaceFluxMap& flux) const {
  const double volume = mesh_.cell_volume(c);
  const mesh::Vec3 omega = ang.dir;

  double numerator =
      q_per_ster[static_cast<std::size_t>(c.value())] * volume;
  double denominator =
      xs_.sigma_t[static_cast<std::size_t>(c.value())] * volume;

  // First pass: gather inflow and accumulate outflow coefficients.
  for (const auto f : mesh_.cell_faces(c)) {
    const mesh::Vec3 area = mesh_.outward_area(f, c);
    const double adot = dot(area, omega);
    if (adot > 0.0) {
      denominator += adot;
    } else if (adot < 0.0) {
      numerator += (-adot) * lookup(flux, f);
    }
  }
  const double psi_c = numerator / denominator;

  // Second pass: the step scheme's outgoing face flux equals ψ_c.
  for (const auto f : mesh_.cell_faces(c)) {
    const mesh::Vec3 area = mesh_.outward_area(f, c);
    if (dot(area, omega) > 0.0) flux[f] = psi_c;
  }
  return psi_c;
}

void TetStep::sweep_cell_set(CellId c, const Ordinate& ang, int width,
                             const double* q_per_ster, const double* sigma_t,
                             const FaceFluxSetView& flux,
                             double* psi_out) const {
  JSWEEP_ASSERT(width >= 1 && width <= kMaxGroupSetWidth);
  const double volume = mesh_.cell_volume(c);
  const mesh::Vec3 omega = ang.dir;

  const std::size_t base =
      static_cast<std::size_t>(c.value()) * static_cast<std::size_t>(width);

  // Face geometry is lane-independent; gather inflow lanes scalar.
  const auto& faces = mesh_.cell_faces(c);
  std::array<double, 4> adot{};
  alignas(64) double psi_in[4][kMaxGroupSetWidth];
  for (int k = 0; k < 4; ++k) {
    const mesh::Vec3 area =
        mesh_.outward_area(faces[static_cast<std::size_t>(k)], c);
    const double a = dot(area, omega);
    adot[static_cast<std::size_t>(k)] = a;
    if (a < 0.0)
      for (int l = 0; l < width; ++l) psi_in[k][l] = flux.read_in(k, l);
  }

  alignas(64) double numerator[kMaxGroupSetWidth];
  alignas(64) double denominator[kMaxGroupSetWidth];
#pragma omp simd
  for (int l = 0; l < width; ++l) {
    numerator[l] = q_per_ster[base + static_cast<std::size_t>(l)] * volume;
    denominator[l] = sigma_t[base + static_cast<std::size_t>(l)] * volume;
  }
  // Same k order and the same conditional adds as the scalar kernel.
  for (int k = 0; k < 4; ++k) {
    const double a = adot[static_cast<std::size_t>(k)];
    if (a > 0.0) {
#pragma omp simd
      for (int l = 0; l < width; ++l) denominator[l] += a;
    } else if (a < 0.0) {
#pragma omp simd
      for (int l = 0; l < width; ++l) numerator[l] += (-a) * psi_in[k][l];
    }
  }
#pragma omp simd
  for (int l = 0; l < width; ++l)
    psi_out[l] = numerator[l] / denominator[l];

  for (int k = 0; k < 4; ++k)
    if (adot[static_cast<std::size_t>(k)] > 0.0)
      for (int l = 0; l < width; ++l) flux.write_out(k, l, psi_out[l]);
}

void TetStep::face_ids(CellId c, const Ordinate& ang,
                       CellFaceIds& ids) const {
  const mesh::Vec3 omega = ang.dir;
  ids = CellFaceIds{};
  ids.count = 4;
  const auto& faces = mesh_.cell_faces(c);
  for (int k = 0; k < 4; ++k) {
    const std::int64_t f = faces[static_cast<std::size_t>(k)];
    const double adot = dot(mesh_.outward_area(f, c), omega);
    // Same exact sign tests as the kernels: a grazing face (adot == 0)
    // carries no flux either way.
    if (adot < 0.0) ids.in[static_cast<std::size_t>(k)] = f;
    if (adot > 0.0) ids.out[static_cast<std::size_t>(k)] = f;
  }
}

}  // namespace jsweep::sn
