#include "net/vca.h"

#include <string>

#include "common/log.h"

namespace hornet::net {

VcaMode
vca_mode_from_string(const std::string &s)
{
    if (s == "dynamic")
        return VcaMode::Dynamic;
    if (s == "static")
        return VcaMode::StaticSet;
    if (s == "edvca")
        return VcaMode::Edvca;
    if (s == "faa")
        return VcaMode::Faa;
    fatal("unknown VCA mode: " + s);
}

const char *
to_string(VcaMode mode)
{
    switch (mode) {
      case VcaMode::Dynamic:
        return "dynamic";
      case VcaMode::StaticSet:
        return "static";
      case VcaMode::Edvca:
        return "edvca";
      case VcaMode::Faa:
        return "faa";
    }
    return "?";
}

} // namespace hornet::net
