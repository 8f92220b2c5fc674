// Exact simulated counts: every trace-driven result the benches report,
// pinned bit for bit.  A refactor of the loop nests, the block driver or
// the simulator may change how a sweep is written but never which
// addresses it touches in which order, so these values must not move.
//
// Each row is one run_kernel(..., simulate) configuration: access count
// exactly, and the L1 / global L2 miss percentages as exact bit patterns
// (hex-float literals).  A mismatch prints the row as it now reads.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "rt/bench/runner.hpp"
#include "rt/cachesim/hierarchy.hpp"
#include "rt/core/plan.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/multigrid/mg_solver.hpp"
#include "rt/multigrid/sor_solver.hpp"

namespace {

using rt::core::Backend;
using rt::core::Transform;
using rt::kernels::KernelId;

struct Row {
  KernelId kernel;
  Transform transform;
  Backend backend;
  long n;
  std::uint32_t l1_assoc;
  std::uint64_t accesses;
  double l1_miss_pct;
  double l2_miss_pct;
};

constexpr KernelId K_J = KernelId::kJacobi;
constexpr KernelId K_RB = KernelId::kRedBlack;
constexpr KernelId K_R = KernelId::kResid;
constexpr KernelId K_P = KernelId::kPsinv;
constexpr Transform T_O = Transform::kOrig;
constexpr Transform T_T = Transform::kTile;
constexpr Transform T_G = Transform::kGcdPad;
constexpr Transform T_P = Transform::kPad;
constexpr Backend B_M = Backend::kModel;
constexpr Backend B_L = Backend::kLattice;
constexpr Backend B_O = Backend::kOblivious;

// clang-format off
const std::vector<Row> kRows = {
    {K_J, T_O, B_M, 33, 1, 138384, 0x1.0f5f5675453b5p+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_O, B_M, 33, 2, 138384, 0x1.11ff3afd8b15bp+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_O, B_M, 48, 1, 304704, 0x1.0f8a22bc4da4fp+5, 0x1.a974f341a7478p+0},
    {K_J, T_O, B_M, 48, 2, 304704, 0x1.0f8a22bc4da4fp+5, 0x1.a974f341a7478p+0},
    {K_J, T_O, B_L, 33, 1, 138384, 0x1.0f5f5675453b5p+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_O, B_L, 33, 2, 138384, 0x1.11ff3afd8b15bp+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_O, B_L, 48, 1, 304704, 0x1.0f8a22bc4da4fp+5, 0x1.a974f341a7478p+0},
    {K_J, T_O, B_L, 48, 2, 304704, 0x1.0f8a22bc4da4fp+5, 0x1.a974f341a7478p+0},
    {K_J, T_O, B_O, 33, 1, 138384, 0x1.0f5f5675453b5p+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_O, B_O, 33, 2, 138384, 0x1.11ff3afd8b15bp+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_O, B_O, 48, 1, 304704, 0x1.0f8a22bc4da4fp+5, 0x1.a974f341a7478p+0},
    {K_J, T_O, B_O, 48, 2, 304704, 0x1.0f8a22bc4da4fp+5, 0x1.a974f341a7478p+0},
    {K_J, T_T, B_M, 33, 1, 138384, 0x1.0cac34af947f5p+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_T, B_M, 33, 2, 138384, 0x1.1900eae56403ap+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_T, B_M, 48, 1, 304704, 0x1.096d6c21c487cp+5, 0x1.a974f341a7478p+0},
    {K_J, T_T, B_M, 48, 2, 304704, 0x1.f109d706efb52p+4, 0x1.a974f341a7478p+0},
    {K_J, T_T, B_L, 33, 1, 138384, 0x1.c18e0b6cd5b4p+4, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_T, B_L, 33, 2, 138384, 0x1.cc810cfe6e674p+4, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_T, B_L, 48, 1, 304704, 0x1.e22027932b49p+4, 0x1.a974f341a7478p+0},
    {K_J, T_T, B_L, 48, 2, 304704, 0x1.dadbb481b19a6p+4, 0x1.a974f341a7478p+0},
    {K_J, T_T, B_O, 33, 1, 138384, 0x1.00a17db4c285fp+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_T, B_O, 33, 2, 138384, 0x1.10932a4bf354fp+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_T, B_O, 48, 1, 304704, 0x1.f7166c1400a54p+4, 0x1.a974f341a7478p+0},
    {K_J, T_T, B_O, 48, 2, 304704, 0x1.dc08d17d1f903p+4, 0x1.a974f341a7478p+0},
    {K_J, T_G, B_M, 33, 1, 138384, 0x1.e1ac9730cef46p+4, 0x1.d69ef20f186b4p+0},
    {K_J, T_G, B_M, 33, 2, 138384, 0x1.e1ac9730cef46p+4, 0x1.d69ef20f186b4p+0},
    {K_J, T_G, B_M, 48, 1, 304704, 0x1.d978d2595db8bp+4, 0x1.a974f341a7478p+0},
    {K_J, T_G, B_M, 48, 2, 304704, 0x1.d978d2595db8bp+4, 0x1.a974f341a7478p+0},
    {K_J, T_G, B_L, 33, 1, 138384, 0x1.c18e0b6cd5b4p+4, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_G, B_L, 33, 2, 138384, 0x1.cc810cfe6e674p+4, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_G, B_L, 48, 1, 304704, 0x1.e22027932b49p+4, 0x1.a974f341a7478p+0},
    {K_J, T_G, B_L, 48, 2, 304704, 0x1.dadbb481b19a6p+4, 0x1.a974f341a7478p+0},
    {K_J, T_G, B_O, 33, 1, 138384, 0x1.00a17db4c285fp+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_G, B_O, 33, 2, 138384, 0x1.10932a4bf354fp+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_G, B_O, 48, 1, 304704, 0x1.f7166c1400a54p+4, 0x1.a974f341a7478p+0},
    {K_J, T_G, B_O, 48, 2, 304704, 0x1.dc08d17d1f903p+4, 0x1.a974f341a7478p+0},
    {K_J, T_P, B_M, 33, 1, 138384, 0x1.da9f105e3e193p+4, 0x1.b60fec954bdc9p+0},
    {K_J, T_P, B_M, 33, 2, 138384, 0x1.dcd75c60ba974p+4, 0x1.b60fec954bdc9p+0},
    {K_J, T_P, B_M, 48, 1, 304704, 0x1.ea5bf2732d018p+4, 0x1.a974f341a7478p+0},
    {K_J, T_P, B_M, 48, 2, 304704, 0x1.e6232a6cb92f4p+4, 0x1.a974f341a7478p+0},
    {K_J, T_P, B_L, 33, 1, 138384, 0x1.c18e0b6cd5b4p+4, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_P, B_L, 33, 2, 138384, 0x1.cc810cfe6e674p+4, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_P, B_L, 48, 1, 304704, 0x1.e22027932b49p+4, 0x1.a974f341a7478p+0},
    {K_J, T_P, B_L, 48, 2, 304704, 0x1.dadbb481b19a6p+4, 0x1.a974f341a7478p+0},
    {K_J, T_P, B_O, 33, 1, 138384, 0x1.00a17db4c285fp+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_P, B_O, 33, 2, 138384, 0x1.10932a4bf354fp+5, 0x1.b6fcb6ebaa668p+0},
    {K_J, T_P, B_O, 48, 1, 304704, 0x1.f7166c1400a54p+4, 0x1.a974f341a7478p+0},
    {K_J, T_P, B_O, 48, 2, 304704, 0x1.dc08d17d1f903p+4, 0x1.a974f341a7478p+0},
    {K_RB, T_O, B_M, 33, 1, 123008, 0x1.3a343657e88ecp+4, 0x1.17eab05981bb4p+0},
    {K_RB, T_O, B_M, 33, 2, 123008, 0x1.463901dd5e917p+4, 0x1.17eab05981bb4p+0},
    {K_RB, T_O, B_M, 48, 1, 270848, 0x1.3d94912df939ap+4, 0x1.0df17b6713d76p+0},
    {K_RB, T_O, B_M, 48, 2, 270848, 0x1.3d94912df939ap+4, 0x1.0df17b6713d76p+0},
    {K_RB, T_O, B_L, 33, 1, 123008, 0x1.3a343657e88ecp+4, 0x1.17eab05981bb4p+0},
    {K_RB, T_O, B_L, 33, 2, 123008, 0x1.463901dd5e917p+4, 0x1.17eab05981bb4p+0},
    {K_RB, T_O, B_L, 48, 1, 270848, 0x1.3d94912df939ap+4, 0x1.0df17b6713d76p+0},
    {K_RB, T_O, B_L, 48, 2, 270848, 0x1.3d94912df939ap+4, 0x1.0df17b6713d76p+0},
    {K_RB, T_O, B_O, 33, 1, 123008, 0x1.3a343657e88ecp+4, 0x1.17eab05981bb4p+0},
    {K_RB, T_O, B_O, 33, 2, 123008, 0x1.463901dd5e917p+4, 0x1.17eab05981bb4p+0},
    {K_RB, T_O, B_O, 48, 1, 270848, 0x1.3d94912df939ap+4, 0x1.0df17b6713d76p+0},
    {K_RB, T_O, B_O, 48, 2, 270848, 0x1.3d94912df939ap+4, 0x1.0df17b6713d76p+0},
    {K_RB, T_T, B_M, 33, 1, 123008, 0x1.b43657e88ec8ep+3, 0x1.17eab05981bb4p+0},
    {K_RB, T_T, B_M, 33, 2, 123008, 0x1.ea0ffbbcdeb39p+3, 0x1.17eab05981bb4p+0},
    {K_RB, T_T, B_M, 48, 1, 270848, 0x1.61bbc3fe10742p+3, 0x1.0df17b6713d76p+0},
    {K_RB, T_T, B_M, 48, 2, 270848, 0x1.106ca4896fc9dp+3, 0x1.0df17b6713d76p+0},
    {K_RB, T_T, B_L, 33, 1, 123008, 0x1.a3e008864298fp+2, 0x1.17eab05981bb4p+0},
    {K_RB, T_T, B_L, 33, 2, 123008, 0x1.f3b0154fa67e4p+2, 0x1.17eab05981bb4p+0},
    {K_RB, T_T, B_L, 48, 1, 270848, 0x1.5a1ff083a1264p+2, 0x1.0df17b6713d76p+0},
    {K_RB, T_T, B_L, 48, 2, 270848, 0x1.a390b21642c86p+2, 0x1.0df17b6713d76p+0},
    {K_RB, T_T, B_O, 33, 1, 123008, 0x1.f80842108421p+3, 0x1.17eab05981bb4p+0},
    {K_RB, T_T, B_O, 33, 2, 123008, 0x1.4384653a56d7cp+4, 0x1.17eab05981bb4p+0},
    {K_RB, T_T, B_O, 48, 1, 270848, 0x1.c732d0173a8e4p+3, 0x1.0df17b6713d76p+0},
    {K_RB, T_T, B_O, 48, 2, 270848, 0x1.4d75987045afap+3, 0x1.0df17b6713d76p+0},
    {K_RB, T_G, B_M, 33, 1, 123008, 0x1.7ac5a928398a4p+2, 0x1.42ff3369c1aa4p+0},
    {K_RB, T_G, B_M, 33, 2, 123008, 0x1.7ac5a928398a4p+2, 0x1.42ff3369c1aa4p+0},
    {K_RB, T_G, B_M, 48, 1, 270848, 0x1.53a678fba5055p+2, 0x1.0df17b6713d76p+0},
    {K_RB, T_G, B_M, 48, 2, 270848, 0x1.53a678fba5055p+2, 0x1.0df17b6713d76p+0},
    {K_RB, T_G, B_L, 33, 1, 123008, 0x1.a3e008864298fp+2, 0x1.17eab05981bb4p+0},
    {K_RB, T_G, B_L, 33, 2, 123008, 0x1.f3b0154fa67e4p+2, 0x1.17eab05981bb4p+0},
    {K_RB, T_G, B_L, 48, 1, 270848, 0x1.5a1ff083a1264p+2, 0x1.0df17b6713d76p+0},
    {K_RB, T_G, B_L, 48, 2, 270848, 0x1.a390b21642c86p+2, 0x1.0df17b6713d76p+0},
    {K_RB, T_G, B_O, 33, 1, 123008, 0x1.f80842108421p+3, 0x1.17eab05981bb4p+0},
    {K_RB, T_G, B_O, 33, 2, 123008, 0x1.4384653a56d7cp+4, 0x1.17eab05981bb4p+0},
    {K_RB, T_G, B_O, 48, 1, 270848, 0x1.c732d0173a8e4p+3, 0x1.0df17b6713d76p+0},
    {K_RB, T_G, B_O, 48, 2, 270848, 0x1.4d75987045afap+3, 0x1.0df17b6713d76p+0},
    {K_RB, T_P, B_M, 33, 1, 123008, 0x1.7ac5a928398a4p+2, 0x1.42ff3369c1aa4p+0},
    {K_RB, T_P, B_M, 33, 2, 123008, 0x1.7ac5a928398a4p+2, 0x1.42ff3369c1aa4p+0},
    {K_RB, T_P, B_M, 48, 1, 270848, 0x1.53a678fba5055p+2, 0x1.0df17b6713d76p+0},
    {K_RB, T_P, B_M, 48, 2, 270848, 0x1.53a678fba5055p+2, 0x1.0df17b6713d76p+0},
    {K_RB, T_P, B_L, 33, 1, 123008, 0x1.a3e008864298fp+2, 0x1.17eab05981bb4p+0},
    {K_RB, T_P, B_L, 33, 2, 123008, 0x1.f3b0154fa67e4p+2, 0x1.17eab05981bb4p+0},
    {K_RB, T_P, B_L, 48, 1, 270848, 0x1.5a1ff083a1264p+2, 0x1.0df17b6713d76p+0},
    {K_RB, T_P, B_L, 48, 2, 270848, 0x1.a390b21642c86p+2, 0x1.0df17b6713d76p+0},
    {K_RB, T_P, B_O, 33, 1, 123008, 0x1.f80842108421p+3, 0x1.17eab05981bb4p+0},
    {K_RB, T_P, B_O, 33, 2, 123008, 0x1.4384653a56d7cp+4, 0x1.17eab05981bb4p+0},
    {K_RB, T_P, B_O, 48, 1, 270848, 0x1.c732d0173a8e4p+3, 0x1.0df17b6713d76p+0},
    {K_RB, T_P, B_O, 48, 2, 270848, 0x1.4d75987045afap+3, 0x1.0df17b6713d76p+0},
    {K_R, T_O, B_M, 33, 1, 445904, 0x1.d3198251c5b4ep+2, 0x1.8876f994400b2p-1},
    {K_R, T_O, B_M, 33, 2, 445904, 0x1.d3198251c5b4ep+2, 0x1.8876f994400b2p-1},
    {K_R, T_O, B_M, 48, 1, 981824, 0x1.ca7bda6b90ffp+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_O, B_M, 48, 2, 981824, 0x1.ca7bda6b90ffp+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_O, B_L, 33, 1, 445904, 0x1.d3198251c5b4ep+2, 0x1.8876f994400b2p-1},
    {K_R, T_O, B_L, 33, 2, 445904, 0x1.d3198251c5b4ep+2, 0x1.8876f994400b2p-1},
    {K_R, T_O, B_L, 48, 1, 981824, 0x1.ca7bda6b90ffp+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_O, B_L, 48, 2, 981824, 0x1.ca7bda6b90ffp+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_O, B_O, 33, 1, 445904, 0x1.d3198251c5b4ep+2, 0x1.8876f994400b2p-1},
    {K_R, T_O, B_O, 33, 2, 445904, 0x1.d3198251c5b4ep+2, 0x1.8876f994400b2p-1},
    {K_R, T_O, B_O, 48, 1, 981824, 0x1.ca7bda6b90ffp+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_O, B_O, 48, 2, 981824, 0x1.ca7bda6b90ffp+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_T, B_M, 33, 1, 445904, 0x1.ef12c8f7b93b8p+2, 0x1.8876f994400b2p-1},
    {K_R, T_T, B_M, 33, 2, 445904, 0x1.fd8a836034075p+2, 0x1.8876f994400b2p-1},
    {K_R, T_T, B_M, 48, 1, 981824, 0x1.cadffa2045f4p+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_T, B_M, 48, 2, 981824, 0x1.c01b3bd2f1bb7p+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_T, B_L, 33, 1, 445904, 0x1.6d652e94d4315p+2, 0x1.8876f994400b2p-1},
    {K_R, T_T, B_L, 33, 2, 445904, 0x1.9cee9310b0cf1p+2, 0x1.8876f994400b2p-1},
    {K_R, T_T, B_L, 48, 1, 981824, 0x1.a8465a8b9b245p+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_T, B_L, 48, 2, 981824, 0x1.788be8097a77ep+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_T, B_O, 33, 1, 445904, 0x1.c339b23b944e2p+2, 0x1.8876f994400b2p-1},
    {K_R, T_T, B_O, 33, 2, 445904, 0x1.d176a29225888p+2, 0x1.8876f994400b2p-1},
    {K_R, T_T, B_O, 48, 1, 981824, 0x1.cbf1a61f45a2ep+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_T, B_O, 48, 2, 981824, 0x1.77417f6858827p+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_G, B_M, 33, 1, 445904, 0x1.86f8d81fd1d9bp+2, 0x1.a1443922c968ap-1},
    {K_R, T_G, B_M, 33, 2, 445904, 0x1.86f8d81fd1d9bp+2, 0x1.a1443922c968ap-1},
    {K_R, T_G, B_M, 48, 1, 981824, 0x1.7693f31e0dc8ap+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_G, B_M, 48, 2, 981824, 0x1.7693f31e0dc8ap+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_G, B_L, 33, 1, 445904, 0x1.6d652e94d4315p+2, 0x1.8876f994400b2p-1},
    {K_R, T_G, B_L, 33, 2, 445904, 0x1.9cee9310b0cf1p+2, 0x1.8876f994400b2p-1},
    {K_R, T_G, B_L, 48, 1, 981824, 0x1.a8465a8b9b245p+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_G, B_L, 48, 2, 981824, 0x1.788be8097a77ep+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_G, B_O, 33, 1, 445904, 0x1.c339b23b944e2p+2, 0x1.8876f994400b2p-1},
    {K_R, T_G, B_O, 33, 2, 445904, 0x1.d176a29225888p+2, 0x1.8876f994400b2p-1},
    {K_R, T_G, B_O, 48, 1, 981824, 0x1.cbf1a61f45a2ep+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_G, B_O, 48, 2, 981824, 0x1.77417f6858827p+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_P, B_M, 33, 1, 445904, 0x1.af5511ebeb75ep+2, 0x1.8876f994400b2p-1},
    {K_R, T_P, B_M, 33, 2, 445904, 0x1.c609dd970184p+2, 0x1.8876f994400b2p-1},
    {K_R, T_P, B_M, 48, 1, 981824, 0x1.aac078aebfdefp+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_P, B_M, 48, 2, 981824, 0x1.93c1306062c9fp+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_P, B_L, 33, 1, 445904, 0x1.6d652e94d4315p+2, 0x1.8876f994400b2p-1},
    {K_R, T_P, B_L, 33, 2, 445904, 0x1.9cee9310b0cf1p+2, 0x1.8876f994400b2p-1},
    {K_R, T_P, B_L, 48, 1, 981824, 0x1.a8465a8b9b245p+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_P, B_L, 48, 2, 981824, 0x1.788be8097a77ep+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_P, B_O, 33, 1, 445904, 0x1.c339b23b944e2p+2, 0x1.8876f994400b2p-1},
    {K_R, T_P, B_O, 33, 2, 445904, 0x1.d176a29225888p+2, 0x1.8876f994400b2p-1},
    {K_R, T_P, B_O, 48, 1, 981824, 0x1.cbf1a61f45a2ep+2, 0x1.7c787b7c6ff04p-1},
    {K_R, T_P, B_O, 48, 2, 981824, 0x1.77417f6858827p+2, 0x1.7c787b7c6ff04p-1},
    {K_P, T_O, B_M, 33, 1, 445904, 0x1.ecd1ea27f5583p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_O, B_M, 33, 2, 445904, 0x1.ecd1ea27f5583p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_O, B_M, 48, 1, 981824, 0x1.db969a5b8bec6p+1, 0x1.09540545efbf2p-1},
    {K_P, T_O, B_M, 48, 2, 981824, 0x1.db969a5b8bec6p+1, 0x1.09540545efbf2p-1},
    {K_P, T_O, B_L, 33, 1, 445904, 0x1.ecd1ea27f5583p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_O, B_L, 33, 2, 445904, 0x1.ecd1ea27f5583p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_O, B_L, 48, 1, 981824, 0x1.db969a5b8bec6p+1, 0x1.09540545efbf2p-1},
    {K_P, T_O, B_L, 48, 2, 981824, 0x1.db969a5b8bec6p+1, 0x1.09540545efbf2p-1},
    {K_P, T_O, B_O, 33, 1, 445904, 0x1.ecd1ea27f5583p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_O, B_O, 33, 2, 445904, 0x1.ecd1ea27f5583p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_O, B_O, 48, 1, 981824, 0x1.db969a5b8bec6p+1, 0x1.09540545efbf2p-1},
    {K_P, T_O, B_O, 48, 2, 981824, 0x1.db969a5b8bec6p+1, 0x1.09540545efbf2p-1},
    {K_P, T_T, B_M, 33, 1, 445904, 0x1.12623bb9ee32ap+2, 0x1.126d419d49fdfp-1},
    {K_P, T_T, B_M, 33, 2, 445904, 0x1.20d9f62268fe8p+2, 0x1.126d419d49fdfp-1},
    {K_P, T_T, B_M, 48, 1, 981824, 0x1.dc5ed9c4f5d66p+1, 0x1.09540545efbf2p-1},
    {K_P, T_T, B_M, 48, 2, 981824, 0x1.c6d55d2a4d655p+1, 0x1.09540545efbf2p-1},
    {K_P, T_T, B_L, 33, 1, 445904, 0x1.216942ae1251p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_T, B_L, 33, 2, 445904, 0x1.807c0ba5cb8c8p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_T, B_L, 48, 1, 981824, 0x1.972b9a9ba0371p+1, 0x1.09540545efbf2p-1},
    {K_P, T_T, B_L, 48, 2, 981824, 0x1.37b6b5975edep+1, 0x1.09540545efbf2p-1},
    {K_P, T_T, B_O, 33, 1, 445904, 0x1.cd1249fb928aap+1, 0x1.126d419d49fdfp-1},
    {K_P, T_T, B_O, 33, 2, 445904, 0x1.e98c2aa8b4ff6p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_T, B_O, 48, 1, 981824, 0x1.de8231c2f5341p+1, 0x1.09540545efbf2p-1},
    {K_P, T_T, B_O, 48, 2, 981824, 0x1.3521e4551af33p+1, 0x1.09540545efbf2p-1},
    {K_P, T_G, B_M, 33, 1, 445904, 0x1.549095c40da1cp+1, 0x1.2f5cb66e3f959p-1},
    {K_P, T_G, B_M, 33, 2, 445904, 0x1.549095c40da1cp+1, 0x1.2f5cb66e3f959p-1},
    {K_P, T_G, B_M, 48, 1, 981824, 0x1.33c6cbc0857f9p+1, 0x1.09540545efbf2p-1},
    {K_P, T_G, B_M, 48, 2, 981824, 0x1.33c6cbc0857f9p+1, 0x1.09540545efbf2p-1},
    {K_P, T_G, B_L, 33, 1, 445904, 0x1.216942ae1251p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_G, B_L, 33, 2, 445904, 0x1.807c0ba5cb8c8p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_G, B_L, 48, 1, 981824, 0x1.972b9a9ba0371p+1, 0x1.09540545efbf2p-1},
    {K_P, T_G, B_L, 48, 2, 981824, 0x1.37b6b5975edep+1, 0x1.09540545efbf2p-1},
    {K_P, T_G, B_O, 33, 1, 445904, 0x1.cd1249fb928aap+1, 0x1.126d419d49fdfp-1},
    {K_P, T_G, B_O, 33, 2, 445904, 0x1.e98c2aa8b4ff6p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_G, B_O, 48, 1, 981824, 0x1.de8231c2f5341p+1, 0x1.09540545efbf2p-1},
    {K_P, T_G, B_O, 48, 2, 981824, 0x1.3521e4551af33p+1, 0x1.09540545efbf2p-1},
    {K_P, T_P, B_M, 33, 1, 445904, 0x1.a549095c40da2p+1, 0x1.12e2d5c11d20ep-1},
    {K_P, T_P, B_M, 33, 2, 445904, 0x1.d2b2a0b26cf66p+1, 0x1.12e2d5c11d20ep-1},
    {K_P, T_P, B_M, 48, 1, 981824, 0x1.9c1fd6e1e9ac2p+1, 0x1.09540545efbf2p-1},
    {K_P, T_P, B_M, 48, 2, 981824, 0x1.6e2146452f824p+1, 0x1.09540545efbf2p-1},
    {K_P, T_P, B_L, 33, 1, 445904, 0x1.216942ae1251p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_P, B_L, 33, 2, 445904, 0x1.807c0ba5cb8c8p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_P, B_L, 48, 1, 981824, 0x1.972b9a9ba0371p+1, 0x1.09540545efbf2p-1},
    {K_P, T_P, B_L, 48, 2, 981824, 0x1.37b6b5975edep+1, 0x1.09540545efbf2p-1},
    {K_P, T_P, B_O, 33, 1, 445904, 0x1.cd1249fb928aap+1, 0x1.126d419d49fdfp-1},
    {K_P, T_P, B_O, 33, 2, 445904, 0x1.e98c2aa8b4ff6p+1, 0x1.126d419d49fdfp-1},
    {K_P, T_P, B_O, 48, 1, 981824, 0x1.de8231c2f5341p+1, 0x1.09540545efbf2p-1},
    {K_P, T_P, B_O, 48, 2, 981824, 0x1.3521e4551af33p+1, 0x1.09540545efbf2p-1},
};
// clang-format on

const char* kernel_tok(KernelId k) {
  switch (k) {
    case KernelId::kJacobi: return "K_J";
    case KernelId::kRedBlack: return "K_RB";
    case KernelId::kResid: return "K_R";
    case KernelId::kPsinv: return "K_P";
  }
  return "?";
}

const char* transform_tok(Transform t) {
  switch (t) {
    case Transform::kOrig: return "T_O";
    case Transform::kTile: return "T_T";
    case Transform::kGcdPad: return "T_G";
    case Transform::kPad: return "T_P";
    default: return "?";
  }
}

const char* backend_tok(Backend b) {
  switch (b) {
    case Backend::kModel: return "B_M";
    case Backend::kLattice: return "B_L";
    case Backend::kOblivious: return "B_O";
    default: return "?";
  }
}

std::string row_literal(const Row& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{%s, %s, %s, %ld, %u, %" PRIu64 ", %a, %a},",
                kernel_tok(r.kernel), transform_tok(r.transform),
                backend_tok(r.backend), r.n, r.l1_assoc, r.accesses,
                r.l1_miss_pct, r.l2_miss_pct);
  return buf;
}

const Row* find_row(KernelId k, Transform t, Backend b, long n,
                    std::uint32_t assoc) {
  for (const Row& r : kRows) {
    if (r.kernel == k && r.transform == t && r.backend == b && r.n == n &&
        r.l1_assoc == assoc) {
      return &r;
    }
  }
  return nullptr;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(SimExact, RunKernelCountsArePinned) {
  int checked = 0;
  for (KernelId k : {K_J, K_RB, K_R, K_P}) {
    for (Transform t : {T_O, T_T, T_G, T_P}) {
      for (Backend b : {B_M, B_L, B_O}) {
        for (long n : {33L, 48L}) {
          for (std::uint32_t assoc : {1u, 2u}) {
            rt::bench::RunOptions ro;
            ro.k_dim = 10;
            ro.time_steps = 2;
            ro.backend = b;
            ro.l1.assoc = assoc;
            const rt::bench::RunResult res = rt::bench::run_kernel(k, t, n, ro);
            const Row got{k, t, b, n, assoc, res.sim_accesses,
                          res.l1_miss_pct, res.l2_miss_pct};
            const Row* want = find_row(k, t, b, n, assoc);
            if (want == nullptr) {
              ADD_FAILURE() << "no pinned row for " << row_literal(got);
              continue;
            }
            EXPECT_EQ(got.accesses, want->accesses) << row_literal(got);
            EXPECT_TRUE(same_bits(got.l1_miss_pct, want->l1_miss_pct))
                << row_literal(got);
            EXPECT_TRUE(same_bits(got.l2_miss_pct, want->l2_miss_pct))
                << row_literal(got);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, static_cast<int>(kRows.size()));
}

struct Counts {
  std::uint64_t l1_accesses, l1_misses, l2_accesses, l2_misses;
};

Counts counts(const rt::cachesim::CacheHierarchy& h) {
  const rt::cachesim::HierarchyStats st = h.stats();
  return {st.l1.accesses, st.l1.misses, st.l2.accesses, st.l2.misses};
}

std::string counts_literal(const Counts& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{%" PRIu64 "u, %" PRIu64 "u, %" PRIu64 "u, %" PRIu64 "u}",
                c.l1_accesses, c.l1_misses, c.l2_accesses, c.l2_misses);
  return buf;
}

void expect_counts(const Counts& got, const Counts& want) {
  EXPECT_EQ(got.l1_accesses, want.l1_accesses) << counts_literal(got);
  EXPECT_EQ(got.l1_misses, want.l1_misses) << counts_literal(got);
  EXPECT_EQ(got.l2_accesses, want.l2_accesses) << counts_literal(got);
  EXPECT_EQ(got.l2_misses, want.l2_misses) << counts_literal(got);
}

TEST(SimExact, TracedMgSolverGcdPadTiledPsinv) {
  rt::multigrid::MgOptions o;
  o.lt = 5;
  const long n = (1L << o.lt) + 2;  // the finest level
  o.resid_plan =
      rt::core::plan_for_checked(
          Transform::kGcdPad, 2048, n, n,
          rt::kernels::kernel_info(KernelId::kResid).spec)
          .plan;
  ASSERT_TRUE(o.resid_plan.tiled);
  ASSERT_EQ(o.resid_plan.schedule, rt::core::LoopSchedule::kTiled);
  o.tile_psinv = true;
  auto hier = rt::cachesim::CacheHierarchy::ultrasparc2();
  rt::multigrid::MgSolver s(o, &hier);
  s.setup();
  hier.reset_stats();
  for (int i = 0; i < 2; ++i) s.iterate();
  expect_counts(counts(hier), {7030224u, 437806u, 437806u, 2568u});
}

Counts traced_sor(bool tiled) {
  rt::multigrid::SorOptions o;
  o.n = 34;
  if (tiled) {
    o.plan = rt::core::plan_for_checked(
                 Transform::kGcdPad, 2048, o.n, o.n,
                 rt::kernels::kernel_info(KernelId::kRedBlack).spec)
                 .plan;
  }
  EXPECT_EQ(o.plan.tiled, tiled);
  auto hier = rt::cachesim::CacheHierarchy::ultrasparc2();
  rt::multigrid::SorSolver s(o, &hier);
  s.setup();
  for (int i = 0; i < 2; ++i) s.sweep();
  return counts(hier);
}

TEST(SimExact, TracedSorSolverNaive) {
  expect_counts(traced_sor(false), {589824u, 138312u, 138312u, 9283u});
}

TEST(SimExact, TracedSorSolverFusedTiled) {
  expect_counts(traced_sor(true), {589824u, 98008u, 98008u, 11438u});
}

}  // namespace
