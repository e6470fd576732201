#include "sweep/plan.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/timer.hpp"

namespace jsweep::sweep {

std::string to_string(CyclePolicy p) {
  switch (p) {
    case CyclePolicy::Assume: return "assume";
    case CyclePolicy::Error: return "error";
    case CyclePolicy::Lag: return "lag";
  }
  return "?";
}

CyclePolicy cycle_policy_from_string(const std::string& name) {
  if (name == "assume") return CyclePolicy::Assume;
  if (name == "error") return CyclePolicy::Error;
  if (name == "lag") return CyclePolicy::Lag;
  JSWEEP_CHECK_MSG(false, "unknown cycle policy '" << name
                                                   << "' (assume|error|lag)");
  return CyclePolicy::Error;
}

SweepPlan::~SweepPlan() = default;

namespace {

/// Up-front invariant validation: every mismatch that used to surface as a
/// mid-solve assertion fails here instead, with enough context to fix it.
void validate_plan_inputs(comm::Context& ctx, std::int64_t mesh_cells,
                          const partition::PatchSet& ps,
                          const std::vector<RankId>& owner,
                          const sn::Discretization& disc,
                          const sn::Quadrature& quad,
                          const PlanConfig& config) {
  JSWEEP_CHECK_MSG(quad.num_angles() >= 1,
                   "plan needs a non-empty quadrature (got 0 ordinates) — "
                   "build one with sn::Quadrature::level_symmetric-style "
                   "factories before SweepPlan::build");
  JSWEEP_CHECK_MSG(ps.num_cells() == mesh_cells,
                   "patch set partitions " << ps.num_cells()
                                           << " cells but the mesh has "
                                           << mesh_cells
                                           << " — partition the same mesh "
                                              "the plan is built over");
  JSWEEP_CHECK_MSG(disc.num_cells() == ps.num_cells(),
                   "discretization covers "
                       << disc.num_cells() << " cells, the partition "
                       << ps.num_cells()
                       << " — build the sweep kernel over the same mesh");
  JSWEEP_CHECK_MSG(static_cast<int>(owner.size()) == ps.num_patches(),
                   "patch owner table has " << owner.size() << " entries for "
                                            << ps.num_patches()
                                            << " patches — one owner rank "
                                               "per patch, identical on "
                                               "every rank");
  for (std::size_t p = 0; p < owner.size(); ++p)
    JSWEEP_CHECK_MSG(
        owner[p].value() >= 0 && owner[p].value() < ctx.size(),
        "patch " << p << " is owned by rank " << owner[p] << " but the "
                 << "cluster has ranks 0.." << ctx.size() - 1);
  JSWEEP_CHECK_MSG(config.cluster_grain >= 1,
                   "PlanConfig::cluster_grain = "
                       << config.cluster_grain
                       << " — compute() must retire at least one vertex "
                          "per batch");
  disc.xs().validate();
  JSWEEP_CHECK_MSG(
      config.group_set_width >= 1 &&
          config.group_set_width <= sn::kMaxGroupSetWidth,
      "PlanConfig::group_set_width = " << config.group_set_width
                                       << " — must be in [1, "
                                       << sn::kMaxGroupSetWidth << "]");
  JSWEEP_CHECK_MSG(config.group_set_width == 1 || config.multigroup != nullptr,
                   "PlanConfig::group_set_width = "
                       << config.group_set_width
                       << " needs a multigroup plan (set PlanConfig::"
                          "multigroup)");
  if (config.multigroup != nullptr) {
    const auto& mxs = *config.multigroup;
    mxs.validate();
    JSWEEP_CHECK_MSG(mxs.cells() == ps.num_cells(),
                     "multigroup table covers "
                         << mxs.cells() << " cells, mesh has "
                         << ps.num_cells());
  }
}

}  // namespace

namespace {

/// The ω component along `axis`.
double omega_component(const mesh::Vec3& omega, int axis) {
  return axis == 0 ? omega.x : axis == 1 ? omega.y : omega.z;
}

/// The side angle ω *enters* along `axis` (ω_x > 0 travels +x, entering
/// through XLo). Quadrature components are never exactly zero.
mesh::FaceDir inflow_side(const mesh::Vec3& omega, int axis) {
  return static_cast<mesh::FaceDir>(
      2 * axis + (omega_component(omega, axis) > 0.0 ? 0 : 1));
}

}  // namespace

std::shared_ptr<const SweepPlan> SweepPlan::build(
    comm::Context& ctx, const mesh::StructuredMesh& m,
    const partition::PatchSet& ps, std::vector<RankId> patch_owner,
    const sn::StructuredDD& disc, const sn::Quadrature& quad,
    PlanConfig config) {
  // Reflecting/albedo boundary sides: precompute the per-axis mirror-angle
  // table (validating quadrature closure up front) and hand build_impl the
  // slot registrar + per-(patch, angle) coupling builder. All-vacuum specs
  // register nothing and leave every existing plan bitwise unchanged.
  const sn::BoundarySpec bc = disc.boundary();
  std::array<std::vector<int>, 3> mirror;
  if (bc.any()) {
    for (int axis = 0; axis < 3; ++axis) {
      const auto lo = static_cast<mesh::FaceDir>(2 * axis);
      if (bc.side(lo) == 0.0 && bc.side(mesh::opposite(lo)) == 0.0) continue;
      mirror[static_cast<std::size_t>(axis)].resize(
          static_cast<std::size_t>(quad.num_angles()));
      for (int a = 0; a < quad.num_angles(); ++a)
        mirror[static_cast<std::size_t>(axis)][static_cast<std::size_t>(a)] =
            sn::mirror_ordinate(quad, a, axis);
    }
  }
  // Deterministic slot order — identical on every rank: angle-major, then
  // side, then cell ascending. A slot exists for every (angle, boundary
  // face) pair the angle flows OUT of on a non-vacuum side.
  const auto boundary_registrar = [&](LaggedFluxStore& store) {
    if (!bc.any()) return;
    for (int a = 0; a < quad.num_angles(); ++a) {
      const mesh::Vec3 omega = quad.angle(a).dir;
      for (int side = 0; side < 6; ++side) {
        const auto d = static_cast<mesh::FaceDir>(side);
        if (bc.side(d) == 0.0) continue;
        if (dot(omega, mesh::kFaceNormals[static_cast<std::size_t>(side)]) <=
            0.0)
          continue;  // angle does not exit this side
        for (std::int64_t c = 0; c < m.num_cells(); ++c)
          if (!m.neighbor(CellId{c}, d))
            store.add_slot(a, graph::structured_face_id(CellId{c}, d));
      }
    }
  };
  const auto boundary_builder = [&](PatchId p, AngleId a,
                                    const LaggedFluxStore& store) {
    BoundaryCoupling coupling;
    if (!bc.any()) return coupling;
    const mesh::Vec3 omega = quad.angle(a.value()).dir;
    const auto& cells = ps.cells(p);
    for (std::size_t v = 0; v < cells.size(); ++v) {
      const CellId c = cells[v];
      for (int axis = 0; axis < 3; ++axis) {
        const mesh::FaceDir d_in = inflow_side(omega, axis);
        const mesh::FaceDir d_out = mesh::opposite(d_in);
        // Incoming at a non-vacuum boundary side: seed albedo × the mirror
        // angle's stored outflow at the very same face.
        if (bc.side(d_in) != 0.0 && !m.neighbor(c, d_in)) {
          const std::int64_t face = graph::structured_face_id(c, d_in);
          coupling.reads.push_back(BoundaryRead{
              face,
              store.slot_index(
                  mirror[static_cast<std::size_t>(axis)]
                        [static_cast<std::size_t>(a.value())],
                  face),
              bc.side(d_in)});
        }
        // Outgoing at a non-vacuum boundary side: stage the raw outflow
        // into this angle's own slot for the next sweep's mirror seed.
        if (bc.side(d_out) != 0.0 && !m.neighbor(c, d_out)) {
          const std::int64_t face = graph::structured_face_id(c, d_out);
          coupling.writes.push_back(BoundaryWrite{
              static_cast<std::int32_t>(v), face,
              store.slot_index(a.value(), face)});
        }
      }
    }
    return coupling;
  };
  return build_impl(
      ctx, m.num_cells(), ps, std::move(patch_owner), disc, quad, config,
      [&](const sn::CellXs& xs) {
        return std::make_unique<sn::StructuredDD>(
            m, xs, disc.negative_flux_fixup(), disc.boundary());
      },
      [&](PatchId p, const mesh::Vec3& omega, AngleId a,
          const graph::CycleCut* cut) {
        return graph::build_patch_task_graph(m, ps, p, omega, a, cut);
      },
      [&] { return graph::inter_patch_faces(m, ps); },
      [&](const mesh::Vec3& omega) {
        return graph::compute_cycle_cut(m, omega);
      },
      bc.any() ? boundary_registrar
               : std::function<void(LaggedFluxStore&)>{},
      bc.any() ? boundary_builder
               : std::function<BoundaryCoupling(
                     PatchId, AngleId, const LaggedFluxStore&)>{});
}

std::shared_ptr<const SweepPlan> SweepPlan::build(
    comm::Context& ctx, const mesh::TetMesh& m, const partition::PatchSet& ps,
    std::vector<RankId> patch_owner, const sn::TetStep& disc,
    const sn::Quadrature& quad, PlanConfig config) {
  return build_impl(
      ctx, m.num_cells(), ps, std::move(patch_owner), disc, quad, config,
      [&](const sn::CellXs& xs) { return std::make_unique<sn::TetStep>(m, xs); },
      [&](PatchId p, const mesh::Vec3& omega, AngleId a,
          const graph::CycleCut* cut) {
        return graph::build_patch_task_graph(m, ps, p, omega, a, cut);
      },
      [&] { return graph::inter_patch_faces(m, ps); },
      [&](const mesh::Vec3& omega) {
        return graph::compute_cycle_cut(m, omega);
      },
      /*boundary_registrar=*/{}, /*boundary_builder=*/{});
}

std::shared_ptr<const SweepPlan> SweepPlan::build_impl(
    comm::Context& ctx, std::int64_t mesh_cells, const partition::PatchSet& ps,
    std::vector<RankId> patch_owner, const sn::Discretization& disc,
    const sn::Quadrature& quad, PlanConfig config,
    const std::function<std::unique_ptr<sn::Discretization>(
        const sn::CellXs&)>& disc_builder,
    const std::function<graph::PatchTaskGraph(
        PatchId, const mesh::Vec3&, AngleId, const graph::CycleCut*)>&
        task_builder,
    const std::function<std::vector<graph::InterPatchFace>()>&
        patch_faces_builder,
    const std::function<graph::CycleCut(const mesh::Vec3&)>& cut_builder,
    const std::function<void(LaggedFluxStore&)>& boundary_registrar,
    const std::function<BoundaryCoupling(PatchId, AngleId,
                                         const LaggedFluxStore&)>&
        boundary_builder) {
  validate_plan_inputs(ctx, mesh_cells, ps, patch_owner, disc, quad, config);
  WallTimer timer;

  // shared_ptr<const SweepPlan> with a private ctor: build mutable, return
  // const.
  std::shared_ptr<SweepPlan> plan(new SweepPlan());
  plan->config_ = config;
  plan->ps_ = &ps;
  plan->quad_ = &quad;
  plan->disc_ = &disc;
  plan->owner_ = std::move(patch_owner);
  plan->built_rank_ = ctx.rank();
  plan->built_size_ = ctx.size();

  for (int p = 0; p < ps.num_patches(); ++p)
    if (plan->owner_[static_cast<std::size_t>(p)] == ctx.rank())
      plan->local_patches_.push_back(PatchId{p});

  // Multigroup: one kernel per group (σ_t varies by group, the mesh does
  // not); pipelined plans build one program set per group *set* — the
  // program count and activation traffic drop by the set width.
  if (config.multigroup != nullptr) {
    const auto& mxs = *config.multigroup;
    for (int g = 0; g < mxs.groups(); ++g)
      plan->group_discs_.push_back(disc_builder(mxs.group_view(g)));
    if (config.group_pipelining)
      plan->groups_built_ = (mxs.groups() + config.group_set_width - 1) /
                            config.group_set_width;
  }

  // Each lagged (cycle-cut) face carries one old-iterate value per energy
  // group — in BOTH multigroup modes (barriered engine runs select their
  // stride via SweepShared::current_group).
  plan->lagged_template_.set_num_groups(
      config.multigroup != nullptr ? config.multigroup->groups() : 1);

  // Reflecting/albedo boundary slots register up front — before any task
  // data is built — because an angle's task resolves the *mirror* angle's
  // slots, which the per-angle loop below would not have reached yet.
  if (boundary_registrar) boundary_registrar(plan->lagged_template_);

  // Stage timers (PlanBuildStats): each stage's wall time accumulates
  // across the per-angle loop.
  PlanBuildStats& stats = plan->build_stats_;
  const auto timed = [](double& bucket, auto&& fn) {
    WallTimer stage;
    fn();
    bucket += stage.seconds();
  };

  // The inter-patch faces do not depend on the direction: list them once,
  // then every angle's patch digraph scans that list, not the mesh.
  std::vector<graph::InterPatchFace> patch_faces;
  timed(stats.patch_graph_seconds,
        [&] { patch_faces = patch_faces_builder(); });

  const std::size_t num_tasks =
      static_cast<std::size_t>(quad.num_angles()) *
      plan->local_patches_.size();
  plan->task_data_.reserve(num_tasks);
  plan->programs_.reserve(num_tasks *
                          static_cast<std::size_t>(plan->groups_built_));

  // One interning scratch for the whole build, reused by every task (a
  // build-local object: concurrent builds never share it).
  FaceSlotInterner interner;

  // Outer loop over angles so all programs of one angle share its
  // patch-priority vector; programs are stored angle-major, a fixed order
  // reused by the deterministic φ collection.
  for (int a = 0; a < quad.num_angles(); ++a) {
    const mesh::Vec3 omega = quad.angle(a).dir;
    // Cycle handling: detect (unless told to assume acyclicity), and either
    // refuse with diagnostics or cut + lag the feedback faces. The cut is a
    // deterministic function of the mesh and direction, so every rank
    // computes the identical set and registers identical store slots.
    graph::CycleCut cut;
    if (config.cycle_policy != CyclePolicy::Assume)
      timed(stats.cycle_cut_seconds, [&] { cut = cut_builder(omega); });
    if (!cut.empty()) {
      JSWEEP_CHECK_MSG(
          config.cycle_policy == CyclePolicy::Lag,
          "sweep direction "
              << a << " (" << omega << ") has cyclic dependencies: "
              << cut.stats.cyclic_components << " SCC(s), largest "
              << cut.stats.largest_component << " cells, "
              << cut.stats.edges_cut
              << " feedback edge(s); set PlanConfig::cycle_policy = "
                 "CyclePolicy::Lag to cut and lag them");
      plan->cycle_stats_.merge(cut.stats);
      ++plan->cyclic_angles_;
      std::vector<std::int64_t> faces(cut.lagged_faces.begin(),
                                      cut.lagged_faces.end());
      std::sort(faces.begin(), faces.end());
      for (const auto face : faces) plan->lagged_template_.add_slot(a, face);
    }
    std::vector<double> pprio;
    timed(stats.patch_graph_seconds, [&] {
      pprio = graph::patch_priorities(
          config.patch_priority,
          graph::build_patch_digraph(patch_faces, ps.num_patches(), omega));
    });
    // The structural task data is group-independent (same DAG, same face
    // slots): built once per (patch, angle), shared by all group programs.
    for (const auto p : plan->local_patches_) {
      BoundaryCoupling coupling;
      graph::PatchTaskGraph task_graph;
      timed(stats.task_graph_seconds, [&] {
        if (boundary_builder)
          coupling = boundary_builder(p, AngleId{a}, plan->lagged_template_);
        task_graph =
            task_builder(p, omega, AngleId{a}, cut.empty() ? nullptr : &cut);
      });
      timed(stats.task_data_seconds, [&] {
        plan->task_data_.push_back(std::make_unique<SweepTaskData>(
            std::move(task_graph), config.vertex_priority, disc, ps,
            quad.angle(a),
            plan->lagged_template_.empty() ? nullptr
                                           : &plan->lagged_template_,
            coupling.empty() ? nullptr : &coupling, &interner));
      });
      stats.task_data_bytes += plan->task_data_.back()->memory_bytes();
      const std::size_t data_index = plan->task_data_.size() - 1;
      for (int g = 0; g < plan->groups_built_; ++g) {
        // Task priority: earlier groups strictly dominate (they unblock
        // downstream groups' sources), then earlier (lower-id) angles so
        // same-angle programs chain through the mesh back-to-back
        // (Sec. V-D). For G = 1 this is exactly the classic -angle prior.
        const double task_prior =
            -static_cast<double>(g * quad.num_angles() + a);
        plan->programs_.push_back(PlanProgram{
            data_index, GroupId{g},
            graph::combined_priority(
                task_prior, pprio[static_cast<std::size_t>(p.value())])});
      }
    }
  }
  plan->build_seconds_ = timer.seconds();
  return plan;
}

}  // namespace jsweep::sweep
