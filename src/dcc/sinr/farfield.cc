#include "dcc/sinr/farfield.h"

namespace dcc::sinr {

void FarFieldPyramid::Reset(const SpatialGrid& grid) {
  if (nx0_ == grid.nx() && ny0_ == grid.ny() && !levels_.empty()) return;
  nx0_ = grid.nx();
  ny0_ = grid.ny();
  levels_.clear();
  int nx = nx0_, ny = ny0_;
  for (;;) {
    Level lv;
    lv.nx = nx;
    lv.ny = ny;
    lv.count.assign(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny),
                    0);
    levels_.push_back(std::move(lv));
    if (nx == 1 && ny == 1) break;
    nx = (nx + 1) / 2;
    ny = (ny + 1) / 2;
  }
}

}  // namespace dcc::sinr
