#include "rt/core/stencil_desc.hpp"

#include <stdexcept>

#include "rt/core/stencil_terms.hpp"

namespace rt::core {

StencilSpec StencilDesc::derive_spec() const {
  if (points.empty()) {
    throw std::invalid_argument("derive_spec: empty stencil");
  }
  return StencilSpec::span("derived", points);
}

namespace {
/// Append @p cls to @p d, every point weighted @p w.
template <std::size_t N>
void add(StencilDesc& d, const Terms<N>& cls, double w) {
  for (const Offset& o : cls) d.points.push_back({o, w});
}
}  // namespace

StencilDesc StencilDesc::jacobi6(double w) {
  StencilDesc d;
  d.name = "jacobi6";
  add(d, terms::kJacobiFaces, w);
  return d;
}

StencilDesc StencilDesc::full27(double c0, double c1, double c2, double c3,
                                std::string name) {
  StencilDesc d;
  d.name = std::move(name);
  add(d, Terms<1>{terms::kCentre}, c0);
  add(d, terms::k27Faces, c1);
  add(d, terms::k27Edges, c2);
  add(d, terms::k27Corners, c3);
  return d;
}

}  // namespace rt::core
