#include "weather/domain_io.hpp"

#include <stdexcept>

namespace adaptviz {

void encode_domain(NclFile& f, const std::string& prefix,
                   const DomainState& s) {
  const GridSpec& g = s.grid;
  const auto dx = f.add_dimension(prefix + "_x", g.nx());
  const auto dy = f.add_dimension(prefix + "_y", g.ny());
  for (const char* name : {"h", "u", "v"}) {
    NclVariable v;
    v.name = prefix + "_" + name;
    v.dims = {dy, dx};
    v.data = name[0] == 'h'   ? s.h.data()
             : name[0] == 'u' ? s.u.data()
                              : s.v.data();
    f.add_variable(std::move(v));
  }
  f.set_attribute(prefix + "_lon0", g.lon0());
  f.set_attribute(prefix + "_lat0", g.lat0());
  f.set_attribute(prefix + "_extent_lon", g.extent_lon());
  f.set_attribute(prefix + "_extent_lat", g.extent_lat());
  f.set_attribute(prefix + "_resolution_km", g.resolution_km());
}

double attr_double(const NclFile& f, const std::string& name) {
  const auto it = f.attributes().find(name);
  if (it == f.attributes().end()) {
    throw std::runtime_error("ncl: missing attribute " + name);
  }
  if (const auto* d = std::get_if<double>(&it->second)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&it->second)) {
    return static_cast<double>(*i);
  }
  throw std::runtime_error("ncl: attribute " + name + " not numeric");
}

DomainState decode_domain(const NclFile& f, const std::string& prefix) {
  const GridSpec g(attr_double(f, prefix + "_lon0"),
                   attr_double(f, prefix + "_lat0"),
                   attr_double(f, prefix + "_extent_lon"),
                   attr_double(f, prefix + "_extent_lat"),
                   attr_double(f, prefix + "_resolution_km"));
  // Check the stored fields against the grid before allocating it, so a
  // hostile grid size fails here instead of in a huge allocation.
  for (const char* name : {"h", "u", "v"}) {
    const NclVariable& v = f.variable(prefix + "_" + std::string(name));
    if (v.data.size() != g.point_count()) {
      throw std::runtime_error("ncl: field size mismatch for " + prefix);
    }
  }
  DomainState s(g);
  for (const char* name : {"h", "u", "v"}) {
    const NclVariable& v = f.variable(prefix + "_" + std::string(name));
    (name[0] == 'h'   ? s.h
     : name[0] == 'u' ? s.u
                      : s.v)
        .data() = v.data;
  }
  return s;
}

bool has_domain(const NclFile& f, const std::string& prefix) {
  return f.has_variable(prefix + "_h");
}

}  // namespace adaptviz
