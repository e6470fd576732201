#include "sweep/plan.hpp"

#include <algorithm>
#include <thread>

#include "core/thread_pool.hpp"
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

  // Reflecting/albedo boundary slots register up front, ahead of the cycle
  // cuts' slots (phase 2): an angle's task resolves the *mirror* angle's
  // slots, and this order fixes the store's slot numbering.
  if (boundary_registrar) boundary_registrar(plan->lagged_template_);

  const std::size_t num_angles = static_cast<std::size_t>(quad.num_angles());
  const std::size_t num_local = plan->local_patches_.size();
  const std::size_t num_tasks = num_angles * num_local;

  // Build lanes: every (angle, patch) task, every cycle cut and every
  // patch-priority vector is a pure function of the mesh, the partition
  // and ω, so the phases below fan them out over `lanes` threads (the
  // caller is one of them) and store each result at a fixed index. The
  // plan is therefore identical for every lane count. Ranks of the
  // in-process cluster share the host, so each takes its share of cores.
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  const auto share =
      static_cast<std::size_t>(std::max(hardware / ctx.size(), 1));
  const int lanes =
      static_cast<int>(std::min(share, std::max<std::size_t>(num_tasks, 1)));
  core::ThreadPool pool(lanes - 1);  // one lane: inline, no threads
  PlanBuildStats& stats = plan->build_stats_;
  stats.lanes = lanes;

  // Phase 1: the cycle cuts of all directions.
  const auto angles = static_cast<std::int64_t>(num_angles);
  std::vector<graph::CycleCut> cuts(num_angles);
  if (config.cycle_policy != CyclePolicy::Assume) {
    WallTimer phase;
    pool.parallel_for(angles, [&](std::int64_t a) {
      cuts[static_cast<std::size_t>(a)] =
          cut_builder(quad.angle(static_cast<int>(a)).dir);
    });
    stats.cycle_cut_seconds = phase.seconds();
  }

  // Phase 2, serial in angle order: refuse a cyclic direction with
  // diagnostics (the lowest one is named) or register its cut faces as
  // lagged slots. The cut is a deterministic function of the mesh and
  // direction, so every rank registers identical store slots. The store
  // is only read from here on.
  for (int a = 0; a < quad.num_angles(); ++a) {
    const graph::CycleCut& cut = cuts[static_cast<std::size_t>(a)];
    if (cut.empty()) continue;
    JSWEEP_CHECK_MSG(
        config.cycle_policy == CyclePolicy::Lag,
        "sweep direction "
            << a << " (" << quad.angle(a).dir << ") has cyclic dependencies: "
            << cut.stats.cyclic_components << " SCC(s), largest "
            << cut.stats.largest_component << " cells, " << cut.stats.edges_cut
            << " feedback edge(s); set PlanConfig::cycle_policy = "
               "CyclePolicy::Lag to cut and lag them");
    plan->cycle_stats_.merge(cut.stats);
    ++plan->cyclic_angles_;
    std::vector<std::int64_t> faces(cut.lagged_faces.begin(),
                                    cut.lagged_faces.end());
    std::sort(faces.begin(), faces.end());
    for (const auto face : faces) plan->lagged_template_.add_slot(a, face);
  }

  // Phase 3: per-direction patch priorities. The inter-patch faces do not
  // depend on the direction: list them once, then every angle's patch
  // digraph scans that list, not the mesh.
  std::vector<std::vector<double>> pprio(num_angles);
  {
    WallTimer phase;
    const std::vector<graph::InterPatchFace> patch_faces =
        patch_faces_builder();
    pool.parallel_for(angles, [&](std::int64_t a) {
      const mesh::Vec3 omega = quad.angle(static_cast<int>(a)).dir;
      pprio[static_cast<std::size_t>(a)] = graph::patch_priorities(
          config.patch_priority,
          graph::build_patch_digraph(patch_faces, ps.num_patches(), omega));
    });
    stats.patch_graph_seconds = phase.seconds();
  }

  // Phase 4: every (angle, patch) task — coupling, task graph and the
  // group-independent SweepTaskData shared by all group programs — into
  // task_data_[a·L + i]. Each lane owns an interning scratch. The first
  // failure stops the pool handing out further tasks and is rethrown by
  // parallel_for.
  plan->task_data_.resize(num_tasks);
  {
    struct Lane {
      FaceSlotInterner interner;
      double graph_seconds = 0.0;
      double data_seconds = 0.0;
    };
    std::vector<Lane> lane_state(static_cast<std::size_t>(lanes));
    const LaggedFluxStore* const lagged =
        plan->lagged_template_.empty() ? nullptr : &plan->lagged_template_;
    WallTimer phase;
    pool.parallel_for(
        static_cast<std::int64_t>(num_tasks), [&](std::int64_t i, int l) {
          Lane& lane = lane_state[static_cast<std::size_t>(l)];
          const auto t = static_cast<std::size_t>(i);
          const AngleId a{static_cast<std::int32_t>(t / num_local)};
          const PatchId p = plan->local_patches_[t % num_local];
          const sn::Ordinate& ordinate = quad.angle(a.value());
          const graph::CycleCut& cut =
              cuts[static_cast<std::size_t>(a.value())];
          WallTimer step;
          BoundaryCoupling coupling;
          if (boundary_builder)
            coupling = boundary_builder(p, a, plan->lagged_template_);
          graph::PatchTaskGraph task_graph =
              task_builder(p, ordinate.dir, a, cut.empty() ? nullptr : &cut);
          lane.graph_seconds += step.seconds();
          step.reset();
          plan->task_data_[t] = std::make_unique<SweepTaskData>(
              std::move(task_graph), config.vertex_priority, disc, ps,
              ordinate, lagged, coupling.empty() ? nullptr : &coupling,
              &lane.interner);
          lane.data_seconds += step.seconds();
        });
    // The phase's wall time, split by the lanes' summed time in each step.
    const double wall = phase.seconds();
    double graph_sum = 0.0;
    double data_sum = 0.0;
    for (const Lane& lane : lane_state) {
      graph_sum += lane.graph_seconds;
      data_sum += lane.data_seconds;
    }
    const double busy = graph_sum + data_sum;
    stats.task_graph_seconds = busy > 0.0 ? wall * (graph_sum / busy) : 0.0;
    stats.task_data_seconds = busy > 0.0 ? wall * (data_sum / busy) : 0.0;
  }

  // Phase 5: the program table, angle-major — a fixed order reused by the
  // deterministic φ collection; all programs of one angle share its
  // patch-priority vector.
  plan->programs_.reserve(num_tasks *
                          static_cast<std::size_t>(plan->groups_built_));
  for (std::size_t t = 0; t < num_tasks; ++t) {
    stats.task_data_bytes += plan->task_data_[t]->memory_bytes();
    const int a = static_cast<int>(t / num_local);
    const PatchId p = plan->local_patches_[t % num_local];
    for (int g = 0; g < plan->groups_built_; ++g) {
      // Task priority: earlier groups strictly dominate (they unblock
      // downstream groups' sources), then earlier (lower-id) angles so
      // same-angle programs chain through the mesh back-to-back
      // (Sec. V-D). For G = 1 this is exactly the classic -angle prior.
      const double task_prior =
          -static_cast<double>(g * quad.num_angles() + a);
      plan->programs_.push_back(PlanProgram{
          t, GroupId{g},
          graph::combined_priority(
              task_prior, pprio[static_cast<std::size_t>(a)]
                               [static_cast<std::size_t>(p.value())])});
    }
  }
  plan->build_seconds_ = timer.seconds();
  return plan;
}

}  // namespace jsweep::sweep
