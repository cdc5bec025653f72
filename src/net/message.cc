#include "net/message.hh"

#include <sstream>

namespace ltp
{

std::string
Message::describe() const
{
    std::ostringstream oss;
    oss << msgTypeName(type) << " " << src << "->" << dst << " blk=0x"
        << std::hex << addr << std::dec;
    if (requester != invalidNode)
        oss << " req=" << requester;
    return oss.str();
}

} // namespace ltp
